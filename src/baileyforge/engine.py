"""Bilateral pair machinery: the main pair, its transforms, and evaluators.

A bilateral pair at dilation r (base q^(r/d) under a scale-d context) is a
pair of sequences alpha_n (n ranging over all integers) and beta_n (zero
for n < 0) tied by the defining convolution

    beta_n = sum_{j=-n..n} alpha_j / ((Q;Q)_{n-j} (Q;Q)_{n+j}),   Q = q^r.

Transforms produce new pairs from old (the two-limit chain step and two
halving lattice walks); evaluators turn a pair into the two sides of a
summation identity. Both rest on one bilateral Bailey lemma whose two limits
x and y are its parameters: each may be a monomial +-q^e or INFINITE. The
square-weight chain step is the two-limit step at x = y = INFINITE, and the
single-sum forms V1, V2, V4 and V5 are the two-limit evaluator at x =
INFINITE and y = INFINITE, -Q^(1/2), -Q and -1. Only V3, whose limits
+-Q^(1/2) are not representable at odd dilation, has a path of its own.
The k-fold chain multisums are the beta side of a pair after k - 1
transforms: ``chain_step`` (AG1), the two-limit step at (INFINITE,
-Q^(1/2)) (AG2), or one lattice walk (LAT1, LAT2) per step, with Q set by
the chained pair's dilation (``multisum_lhs``).
Sums alternating toward a nonzero coefficientwise limit are evaluated in
the Abel sense:

    sum (-1)^n c_n := c_inf/2 + sum_{n>=0} (-1)^n (c_n - c_inf),

which needs the pair to carry its coefficientwise beta limit.

The main pair's beta_n is hypergeometric: beta_n / beta_(n-1) is a product
of four binomials. So are the weights every evaluator and transform puts on
it. Both are written as product forms (``series._times`` arguments as
functions of n), and each weighted term beta_n W(n) is reached from the
last one held by the factors that changed, under the rule the DSL
evaluator's products use (``_weighted``, ``series._stepped``,
``series._from_last``): one kernel call with a few factors per term, where
a term built from scratch applies O(n) factors.

Every bound on the indices a sum visits is read from the form it bounds,
by the one rule ``series._form_floor``. Each pair's alpha is a product
form, so its alpha_floor is that form's lowest exponent; a transform's
alpha is the base pair's times a weight form, and its floor the base
pair's plus the weight's (``_alpha_side``). beta_n has no negative
exponent, so a beta side sum_n beta_n W(n) is bounded by W(n)'s floor
(``_beta_sum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import NegativeFloorError, TerminationError
from .series import (
    EvalContext,
    Monomial,
    QSeries,
    _Budget,
    _Sum,
    _fold,
    _form_floor,
    _stepped,
    _times,
    hard_cap,
    one,
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


@dataclass
class BilateralPair:
    """Bilateral pair with termination metadata.

    alpha_floor(n) lower-bounds the lowest q-exponent of alpha(n), z folded
    under ctx; the constructors and transforms read it from the product
    form alpha(n) is built from (``_alpha_side``), where it is exact.
    beta(n) must have nonnegative minimal exponent. beta_limit, when
    present, returns the coefficientwise limit of beta_n. beta_form, when present, gives beta_n
    for n >= 0 as a product form, the ``_times`` arguments (num, den, lead)
    that build it from 1; each beta_n is reached from the last one held
    (``series._stepped``). Pairs whose beta is a convolution have none.

    A pair keeps no record of how it was built: the transforms are the
    two-limit chain step at chosen limits (x = y = INFINITE gives the
    square-weight step) and the two lattice walks, and a pair reached two
    ways is the same pair.
    """

    ctx: EvalContext
    dilation: int
    alpha: Callable[[int], QSeries]
    beta: Callable[[int], QSeries]
    alpha_floor: Callable[[int], int]
    beta_limit: Callable[[], QSeries] | None = None
    beta_form: Callable[[int], tuple] | None = None


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


def _weighted(pair: "BilateralPair", form):
    """n -> beta_n W(n) for n >= 0, where W(n) is the product form(n).

    Over a pair with a beta form, beta_n W(n) is one product form and each
    term is reached from the one before (``_stepped``); otherwise W(n) is
    applied to beta_n. Nothing is memoised.
    """
    if pair.beta_form is None:
        return lambda n: _times(pair.beta(n), *form(n))

    def joined(n: int):
        bnum, bden, (bc, bz, bq) = pair.beta_form(n)
        wnum, wden, (wc, wz, wq) = form(n)
        return [*bnum, *wnum], [*bden, *wden], (bc * wc, bz + wz, bq + wq)

    return _stepped(pair.ctx, joined)


def _alpha_side(ctx: EvalContext, form, base: "BilateralPair | None" = None):
    """(alpha, floor): n -> alpha_n W(n) for the product form W(n) = form(n), and its floor.

    alpha_n is the base pair's alpha, or 1 for a pair written as a form.
    The floor is the base pair's alpha_floor (0 for 1) plus the lowest
    exponent of W(n) (``_form_floor``). Nothing is memoised.
    """
    def alpha(n: int) -> QSeries:
        num, den, lead = form(n)
        return _times(one(ctx) if base is None else base.alpha(n), num, den, _fold(ctx, *lead))

    def floor(n: int) -> int:
        return (0 if base is None else base.alpha_floor(n)) + _form_floor(ctx, *form(n))

    return alpha, floor


def _beta_sum(pair: "BilateralPair", form, budget, term=None) -> QSeries:
    """sum_{n>=0} beta_n W(n) for the product form W(n) = form(n), bounded by W(n)'s floor.

    beta_n has no negative exponent, so the lowest exponent of W(n)
    (``_form_floor``) bounds the term. term(n) = beta_n W(n) defaults to
    ``_weighted``'s; a caller that shares its terms passes them memoised.
    """
    ctx = pair.ctx
    if term is None:
        term = _weighted(pair, form)
    return _index_sum(ctx, term, lambda n: _form_floor(ctx, *form(n)), budget=budget)


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


# -- pair constructors ------------------------------------------------------


def key_pair(ctx: EvalContext, dilation: int | None = None) -> BilateralPair:
    """The main pair: alpha_n = (-1)^n z^n Q^binom(n,2), beta_n = (z, Q/z; Q)_n / (Q; Q)_2n."""
    r = ctx.scale if dilation is None else dilation
    zbases = ((1, 1, 0), (1, -1, r))
    alpha, floor = _alpha_side(ctx, lambda n: ((), (), ((-1) ** (n % 2), n, r * n * (n - 1) // 2)))

    # beta_n / beta_(n-1) = (1 - zQ^(n-1))(1 - Q^n/z) / ((1 - Q^(2n-1))(1 - Q^(2n))).
    def form(n: int):
        return [(zbases, r, n)], [((1, 0, r), r, 2 * n)], (1, 0, 0)

    def limit() -> QSeries:
        return _times(one(ctx), [(zbases, r, None)], [((1, 0, r), r, None)])

    return BilateralPair(
        ctx, r, _memo_seq(alpha), _memo_seq(_stepped(ctx, form)), floor, _memo_thunk(limit), form,
    )


def closed_form_djk_pair(ctx: EvalContext, dilation: int | None = None) -> BilateralPair:
    """Closed form of the halving lattice walk that rescales alpha."""
    u = ctx.scale if dilation is None else dilation
    alpha, floor = _alpha_side(
        ctx, lambda n: ((), [((-1, 0, 2 * u * n), 1, 1)], (2 * (-1) ** (n % 2), n, u * n * n)),
    )

    @_memo_seq
    def term(j: int) -> QSeries:
        num = [((-1, 0, 0), u, 2 * j), (((1, 1, 0), (1, -1, 2 * u)), 2 * u, j)]
        return _times(one(ctx), num, [((1, 0, 2 * u), 2 * u, 2 * j)], (1, 0, u * j))

    return BilateralPair(
        ctx, u, _memo_seq(alpha), _memo_seq(lambda n: _convolve(ctx, term, n, 2 * u)), floor,
    )


def closed_form_jouhet_pair(ctx: EvalContext, dilation: int | None = None) -> BilateralPair:
    """Closed form of the halving lattice walk that keeps alpha fixed."""
    u = ctx.scale if dilation is None else dilation
    alpha, floor = _alpha_side(ctx, lambda n: ((), (), ((-1) ** (n % 2), n, u * n * (n - 1))))

    @_memo_seq
    def term(j: int) -> QSeries:
        num = [(((1, 1, 0), (1, -1, 2 * u)), 2 * u, j)]
        return _times(one(ctx), num, [((1, 0, u), u, 2 * j)])

    return BilateralPair(
        ctx, u, _memo_seq(alpha), _memo_seq(lambda n: _convolve(ctx, term, n, 2 * u, u)), floor,
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


def _index_sum(ctx: EvalContext, f, bound, *, bilateral=False, budget) -> QSeries:
    """The sum of f(n) over ``_indices``, added into one running sum in place."""
    acc = _Sum()
    for n in _indices(bound, ctx.order, hard_cap(ctx), bilateral=bilateral, budget=budget):
        acc.add(f(n))
    return acc.series(ctx)


def _abel_alternating(ctx, term, term_limit, budget) -> QSeries:
    """Abel value of sum_{n>=0} (-1)^n term(n) with term(n) -> term_limit.

    Twice the value, term_limit + sum_n 2(-1)^n (term(n) - term_limit), is
    added up in one running sum in place, in integers for integral terms, and
    halved once at the end.
    """
    acc = _Sum()
    acc.add(term_limit)
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
            acc.add(diff * (-2 if n % 2 else 2))
        n += 1
    return acc.series(ctx) * Fraction(1, 2)


# -- two-limit weight machinery ---------------------------------------------


@dataclass(frozen=True)
class _Weights:
    """Weights of the two-limit evaluator at (x, y) and dilation r.

    The beta weight is (x, y; Q)_n (Q/xy)^n with infinite limits folded in
    by the rule (x; Q)_n x^(-n) -> (-1)^n Q^binom(n,2); the alpha weight
    divides it by (Q/x, Q/y; Q)_n.
    """

    r: int
    x: object
    y: object

    def form(self, n: int, alpha: bool = False):
        """The beta weight at n, or with alpha the alpha weight, as ``_times`` arguments."""
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
        return num, den, (sign, 0, qshift)

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


def _abel_beta_side(pair: BilateralPair, bases, step: int, budget) -> QSeries:
    """Abel value of sum_n (-1)^n (bases; q^step)_n beta_n; bases is one base or a tuple."""
    if pair.beta_limit is None:
        raise TerminationError("alternating zero-growth sum needs a pair with a beta limit")
    term = _weighted(pair, lambda n: ([(bases, step, n)], (), (1, 0, 0)))
    lim = _times(pair.beta_limit(), [(bases, step, None)])
    return _abel_alternating(pair.ctx, term, lim, budget)


def _beta_side(pair: BilateralPair, w: _Weights, budget, term=None) -> QSeries:
    """sum_n beta_n times the beta weight (``_beta_sum``), over the terms term(n) when given.

    At Q/xy = -1 the beta side alternates toward a nonzero limit and is
    Abel-summed over (x, y; Q)_n beta_n instead.
    """
    if w.kernel() == (-1, 0, 0):
        bases = ((w.x.sign, 0, w.x.qexp), (w.y.sign, 0, w.y.qexp))
        return _abel_beta_side(pair, bases, w.r, budget)
    return _beta_sum(pair, w.form, budget, term)

def bms_general_eval(pair: BilateralPair, x, y):
    """Both sides of the two-limit bilateral summation at (x, y).

    Returns (lhs, rhs): lhs sums beta-weight * beta_n over n >= 0, rhs is
    the prefactor times the bilateral alpha-weighted sum. The alternating
    zero-growth setting is evaluated in the Abel sense and needs the pair's
    beta limit.
    """
    w = _Weights(pair.dilation, x, y)
    budget = _Budget()
    lhs = _beta_side(pair, w, budget)
    alpha = _alpha_side(pair.ctx, lambda n: w.form(n, alpha=True), pair)
    asum = _index_sum(pair.ctx, *alpha, bilateral=True, budget=budget)
    return lhs, w.prefactor(asum)


# -- the five collected single-sum forms ------------------------------------


def weak_lemma_eval(pair: BilateralPair, variant: str):
    """Both sides of the five collected single-sum forms V1..V5.

    V1, V2, V4 and V5 are the two-limit evaluator at x = INFINITE and
    y = INFINITE (square weights), -Q^(1/2) (half-square weights, even
    dilation only), -Q (triangular weights) and -1 (shifted-triangular
    weights, split poles on the right). V3 is twice the setting x, y =
    Q^(1/2), -Q^(1/2): the alternating step-2 product, Abel-summed on the
    beta side. Its limits are not monomials at odd dilation, so it is
    summed here directly.
    """
    ctx, r = pair.ctx, pair.dilation
    if variant == "V3":
        budget = _Budget()
        odd = ((1, 0, r), 2 * r)
        lhs = _abel_beta_side(pair, *odd, budget) * 2
        signs = _alpha_side(ctx, lambda n: ((), (), (-1 if n % 2 else 1, 0, 0)), pair)
        asum = _index_sum(ctx, *signs, bilateral=True, budget=budget)
        return lhs, _times(asum, [odd + (None,)], [((1, 0, 2 * r), 2 * r, None)])
    if variant == "V2" and r % 2:
        raise ValueError("V2 needs an even dilation (half-step exponents)")
    limits = {"V1": INFINITE, "V2": Monomial(-1, r // 2), "V4": Monomial(-1, r),
              "V5": Monomial(-1, 0)}
    if variant not in limits:
        raise ValueError(f"unknown variant {variant!r}")
    return bms_general_eval(pair, INFINITE, limits[variant])


# -- transforms -------------------------------------------------------------


def chain_step(pair: BilateralPair) -> BilateralPair:
    """Square-weight chain step alpha'_n = Q^(n^2) alpha_n.

    It is the two-limit step at x = y = INFINITE, whose weights fold to Q^(n^2).
    """
    return general_chain_step(pair, INFINITE, INFINITE)


def general_chain_step(pair: BilateralPair, x, y) -> BilateralPair:
    """Two-limit chain step at (x, y); chain_step is the step at x = y = INFINITE.

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
    alpha, floor = _alpha_side(ctx, lambda n: w.form(n, alpha=True), pair)
    term = _memo_seq(_weighted(pair, w.form))

    def beta(n: int) -> QSeries:
        acc = _convolve(ctx, term, n, r, kernel=kernel)
        return _times(acc, den=[lim + (n,) for lim in limits]) if n >= 0 else acc

    def limit() -> QSeries:
        core = _beta_side(pair, w, _Budget(), term)
        num = [] if kernel is None else [(kernel, r, None)]
        den = [((1, 0, r), r, None)] + [lim + (None,) for lim in limits]
        return _times(core, num, den)

    return BilateralPair(ctx, r, _memo_seq(alpha), _memo_seq(beta), floor, _memo_thunk(limit))


def lattice_djk(pair: BilateralPair) -> BilateralPair:
    """Halving lattice walk that rescales alpha by 2 Q^n / (1 + Q^(2n))."""
    ctx = pair.ctx
    if pair.dilation % 2:
        raise ValueError("lattice walk needs an even dilation")
    s = pair.dilation // 2
    alpha, floor = _alpha_side(
        ctx, lambda n: ((), [((-1, 0, 2 * s * n), 1, 1)], (2, 0, s * n)), pair,
    )

    def form(j: int):
        return [((-1, 0, 0), s, 2 * j)], (), (1, 0, s * j)

    term = _memo_seq(_weighted(pair, form))

    def limit() -> QSeries:
        acc = _beta_sum(pair, form, _Budget(), term)
        return _times(acc, den=[((1, 0, 2 * s), 2 * s, None)])

    return BilateralPair(
        ctx, s, _memo_seq(alpha), _memo_seq(lambda n: _convolve(ctx, term, n, 2 * s)), floor,
        _memo_thunk(limit),
    )


def lattice_jouhet(pair: BilateralPair) -> BilateralPair:
    """Halving lattice walk that keeps alpha fixed."""
    ctx = pair.ctx
    if pair.dilation % 2:
        raise ValueError("lattice walk needs an even dilation")
    s = pair.dilation // 2

    term = _memo_seq(_weighted(pair, lambda j: ([((-1, 0, s), s, 2 * j)], (), (1, 0, 0))))

    def limit() -> QSeries:
        # sum_m q^(sm) / (q^2s; q^2s)_m = 1 / (q^s; q^2s)_inf by Euler's identity.
        if pair.beta_limit is None:
            raise TerminationError("lattice limit needs the base pair's beta limit")
        return _times(pair.beta_limit(), [((-1, 0, s), s, None)], [((1, 0, s), 2 * s, None)])

    return BilateralPair(
        ctx, s, pair.alpha, _memo_seq(lambda n: _convolve(ctx, term, n, 2 * s, s)),
        pair.alpha_floor, _memo_thunk(limit),
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
    acc = _index_sum(ctx, pair.alpha, pair.alpha_floor, bilateral=True, budget=_Budget())
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

        def lweight(n):
            return [((1, 0, 2 * u), 2 * u, 2 * n)], [((-1, 0, u), u, 2 * n + 1)], (1, 0, u * n)

        def outer(n):
            return u * n * (n + 1)

        def jrange(n):
            return range(-n, n + 1)

        def inner_qexp(j):
            return -u * j * j

    elif which == "II":

        def lweight(n):
            return [((1, 0, u), u, 2 * n)], (), (1, 0, u * n)

        def outer(n):
            return u * n * (n + 1) // 2

        def jrange(n):
            return range(-(n // 2), n // 2 + 1)

        def inner_qexp(j):
            return -2 * u * j * j

    else:
        raise ValueError("which must be 'I' or 'II'")

    lhs = _beta_sum(pair, lweight, budget)
    # Each row reads the floors of up to 2n + 1 alphas: read each once.
    floor = {j: pair.alpha_floor(j) for j in range(-cap, cap + 1)}

    def row_bound(n):
        return min(outer(n) + inner_qexp(j) + floor[j] for j in jrange(n))

    acc = _Sum()
    for n in _indices(row_bound, ctx.order, cap, bilateral=False, budget=budget):
        for j in jrange(n):
            # outer + inner >= 0 for |j| within the row, so the fused
            # shift is exact even when each part overflows the order.
            shift = outer(n) + inner_qexp(j)
            if shift + floor[j] > ctx.order:
                continue
            budget.spend()
            acc.add(_times(pair.alpha(j), lead=(1, 0, shift)))
    rhs = acc.series(ctx)

    for side, name in ((lhs, "left"), (rhs, "right")):
        m = side.min_exponent()
        if m is not None and m < 0:
            raise NegativeFloorError(f"{name} side has negative minimal exponent {m}")
    return lhs, rhs


# -- chain multisums --------------------------------------------------------


def multisum_lhs(kind: str, k: int, ctx: EvalContext, pair: BilateralPair | None = None,
                 x=INFINITE, y=INFINITE) -> QSeries:
    """The k-fold chain multisums, as the beta side of the chained pair.

    Each kind applies its transform k - 1 times to the inner pair, then sums
    the beta side once at the two-limit weights (x, y), with Q = q^r at the
    chained pair's dilation r. Unrolled, this is the sum over n_1 >= ... >=
    n_k >= 0 with one transform's kernel between adjacent indices and
    beta_(n_k) on the inner one.

    - "AG1": ``chain_step`` at r = scale, weights Q^(n_i^2).
    - "AG2": ``general_chain_step`` at (INFINITE, -Q^(1/2)) at r = 2 scale,
      weights Q^(n_i^2 / 2) and (-Q^(1/2); Q)_(n_k) on the inner index.
    - "LAT1"/"LAT2" (k >= 2): ``lattice_djk`` / ``lattice_jouhet`` from
      r = scale 2^(k-1) down to scale, then the weights at (x, y).

    The inner pair is the main pair at that dilation unless one is given;
    a given pair's dilation sets Q. Only the lattice kinds take limits. A
    setting whose weights do not grow raises ``TerminationError`` at the
    cap: the sum is literal, with no Abel value.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if kind in ("AG1", "AG2"):
        if x is not INFINITE or y is not INFINITE:
            raise ValueError(f"{kind} multisums take no limits")
        if pair is None:
            pair = key_pair(ctx, ctx.scale if kind == "AG1" else 2 * ctx.scale)
        r = pair.dilation
        if kind == "AG1":
            step = chain_step
        elif r % 2:
            raise ValueError("AG2 needs an even dilation (half-step exponents)")
        else:
            y = Monomial(-1, r // 2)

            def step(p):
                return general_chain_step(p, x, y)
    elif kind in ("LAT1", "LAT2"):
        if k < 2:
            raise ValueError("lattice multisums need k >= 2")
        if pair is None:
            pair = key_pair(ctx, ctx.scale * 2 ** (k - 1))
        step = lattice_djk if kind == "LAT1" else lattice_jouhet
    else:
        raise ValueError(f"unknown multisum kind {kind!r}")
    for _ in range(k - 1):
        pair = step(pair)
    return _beta_sum(pair, _Weights(pair.dilation, x, y).form, _Budget())
