"""Compile identity ASTs onto the exact truncated-series layer.

Each side of a spec is lowered once (``_compile``) into a plan: a tree of
closures over an evaluation frame (``_St``). Integer expressions become
closures over the bindings, a product becomes its flattened factor list
with the index-free parts (scalars, constant product bases) resolved, and a
sum becomes a loop that adds every term into one running sum in place,
column by column (``series._Sum``). Every sum visits its indices by one
rule (``_Ray.indices``): along each of its rays, the bound on its term's
lowest exponent (``growth.lower_floor``, lowered on first use) picks the
indices at which it is at most the order, in the order in which it rises
(``growth.range_values``). A two-sided or Appell sum has a ray up from 0
and one down from -1, a range sum the same two rays cut to its range, and a
chain or Hecke sum one ray along its outer index. A ray without an end
stops where its bound passes the order for good; it is refused, with a
``TerminationError`` that carries the sum and the reason, when its bound is
unproven or does not grow, or when it reaches the order past hard_cap. The
validator's probe reads its termination findings from that refusal. A run
substitutes the parameters' values, and a query that repeats the last one
reuses its answer. Every summed term spends one unit of the term budget. The
plan is kept on the spec (``IdentitySpec.plans``), so every evaluation of a
parsed spec, each sweep point and the validator's probe among them, reuses
it. Lowering reads no binding and raises nothing: a name or a bad value in a
branch that is never reached fails nowhere, and every error is raised where
the term that causes it is evaluated.

Within one evaluation a product reaches each term from its last one where
its window does not grow and that is cheaper, applying only the factors that
changed (``series._from_last``, shared with the engine); the rising order of
a sum's terms keeps that window from growing. A range sum nested in another
sum also holds one row: its products' terms by the inner index, from its
last run. A product there tries its term at the same inner index one outer
step back first, where often only one factor changed, and then its last
term. A range sum at the top level runs once, and holds no row.

A sum whose term is head(n) * runs(n) * X(n), with X(n) one general factor
such as a nested sum, adds its terms in Horner form (Gasper and Rahman,
Basic Hypergeometric Series, 1.2): the ray's loop (``_one_sided``) holds
each X(n), evaluated where it is visited, with its head and reads, and once
the ray is done ``_horner`` goes from the last term down, applying to the
partial sum only the head ratio and the factors that changed from one term
to the next. A term with a formal z in its head or reads, the only kind
whose product may raise, is built at its own index.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PoleError, SpecError, TerminationError
from ..series import (
    EvalContext,
    Monomial,
    QSeries,
    _Budget,
    _Sum,
    _delta,
    _fold,
    _from_last,
    _runs,
    binomials,
    hard_cap,
    monomial,
    one,
    qbinomial,
    retruncate,
    times_binomials,
    zero,
)
from . import growth
from .growth import RAY_T
from .nodes import (
    Add,
    Appell,
    BilateralSum,
    ChainSum,
    Div,
    Hecke,
    IdentitySpec,
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
    int_vars,
)


class _St:
    """Evaluation frame: context, integer bindings, shared budget and product memos.

    A sum binds its indices in a frame of its own (``binding``). reads
    memoises ``binomials`` by its arguments and the working order, whose z
    guard depends on it, for the whole evaluation. lasts holds, per product
    plan, the last term it built from Pochhammer reads (``_from_last``), and
    per range sum nested in another sum, its row: the terms its products
    held, by the inner index, in its last run. In the frame such a sum binds
    its index in, row is the row's entry at that index: each product of the
    body finds there its term at the index one outer step back, and holds
    its new term there. It is None in every other frame.
    """

    __slots__ = ("ctx", "env", "budget", "reads", "lasts", "row")

    def __init__(self, ctx: EvalContext, env: dict, budget: _Budget, reads: dict, lasts: dict,
                 row: dict | None = None):
        self.ctx = ctx
        self.env = env
        self.budget = budget
        self.reads = reads
        self.lasts = lasts
        self.row = row

    def lifted(self, lift: int) -> "_St":
        if lift <= 0:
            return self
        ctx = EvalContext(self.ctx.scale, self.ctx.order + lift, self.ctx.z_interp)
        return _St(ctx, self.env, self.budget, self.reads, self.lasts, self.row)

    def binding(self) -> "_St":
        """A frame over a copy of the bindings, for a sum to bind its indices in."""
        return _St(self.ctx, dict(self.env), self.budget, self.reads, self.lasts)

    def read(self, args: tuple):
        """binomials(ctx, *args): the product's lead monomial and its runs."""
        key = (args, self.ctx.order)
        hit = self.reads.get(key)
        if hit is None:
            hit = self.reads[key] = binomials(self.ctx, *args)
        return hit


# -- products ----------------------------------------------------------------

# Items of a flattened product, and the kinds of its factors.
_LEAF, _SIGN, _RAT, _POW = range(4)
_Q, _Z, _POCH, _GENERAL = range(4)


def _product_items(node, power: int, items: list, scale: int, in_sum: bool) -> None:
    """The factors of a product, in order, with their powers.

    A power whose exponent reads a name stays one item, resolved at run time;
    a constant exponent 0 drops its base unread. A sum of two monomials is a
    length-one Pochhammer factor (``growth.two_monomials``).
    """
    if isinstance(node, Mul):
        _product_items(node.left, power, items, scale, in_sum)
        _product_items(node.right, power, items, scale, in_sum)
    elif isinstance(node, Div):
        _product_items(node.left, power, items, scale, in_sum)
        _product_items(node.right, -power, items, scale, in_sum)
    elif isinstance(node, Neg):
        items.append((_SIGN, power))
        _product_items(node.arg, power, items, scale, in_sum)
    elif isinstance(node, Rational):
        items.append((_RAT, node.value, power))
    elif (two := growth.two_monomials(node)) is not None:
        _product_items(two, power, items, scale, in_sum)
    elif isinstance(node, Pow):
        if int_vars(node.exp):
            base: list = []
            _product_items(node.base, 1, base, scale, in_sum)
            items.append((_POW, int_closure(node.exp), base, power))
        else:
            e = int_eval(node.exp, {})
            if e:
                _product_items(node.base, power * e, items, scale, in_sum)
    else:
        items.append((_LEAF, _factor(node, scale, in_sum), power))


def _resolve(items: list, mult: int, env, leaves: list):
    """The scalar of flattened items raised to mult; their factors join leaves."""
    scalar = 1
    for item in items:
        tag = item[0]
        if tag == _LEAF:
            leaves.append((item[1], item[2] * mult))
        elif tag == _SIGN:
            if item[1] * mult % 2:
                scalar = -scalar
        elif tag == _RAT:
            p = item[2] * mult
            if not item[1] and p < 0:
                raise PoleError("division by zero")
            scalar = scalar * Fraction(item[1]) ** p
        else:
            e = item[1](env)
            if e:
                scalar = scalar * _resolve(item[2], item[3] * mult * e, env, leaves)
    return scalar


def _factor(node, scale: int, in_sum: bool):
    """(kind, data) of one factor of a product."""
    if isinstance(node, QPow):
        return _Q, (int_closure(node.exp) if node.exp is not None else (lambda env: scale))
    if isinstance(node, ZPow):
        return _Z, (int_closure(node.exp) if node.exp is not None else (lambda env: 1))
    if isinstance(node, (Poch, Theta)):
        return _POCH, _poch(node, scale)
    return _GENERAL, _compile(node, scale, in_sum)


def _poch(node, scale: int):
    """A Pochhammer or theta factor as (resolve, positive).

    resolve(env) gives the arguments of its ``binomials`` read: base
    triples, step and length (None: infinite). positive says that every
    base is a constant pure q-power above q^0, so the product's lead is 1.
    """
    fns = [growth.base_closure(b, scale) for b in node.bases]
    consts = []
    for f in fns:
        try:
            consts.append(f({}))
        except (KeyError, SpecError, PoleError):
            break
    const = tuple(consts) if len(consts) == len(fns) else None
    positive = const is not None and all(not c or (not ze and qe > 0) for c, ze, qe in const)
    step_of = int_closure(node.step)
    length_of = int_closure(node.length) if isinstance(node, Poch) and node.length is not None else None

    def resolve(env):
        step = step_of(env)
        if step < 1:
            raise SpecError("product step must be >= 1")
        length = None
        if length_of is not None:
            length = length_of(env)
            if length < 0:
                raise SpecError("product length must be >= 0")
        return (const if const is not None else tuple(f(env) for f in fns)), step, length

    return resolve, positive


def _unit_lead(ctx: EvalContext, triples) -> bool:
    """Whether ``binomials`` gives the product lead 1 and raises nothing.

    True when every base with a nonzero coefficient folds to an exponent
    above q^0 and a formal z-power within the guard: then every factor
    starts above q^0 and its read can wait until the product is known to
    reach the window.
    """
    zi = ctx.z_interp
    for c, ze, qe in triples:
        if not c:
            continue
        if ze and zi is not None:
            qe += ze * zi.qexp
        elif ze and abs(ze) > ctx.z_cap and qe <= ctx.order:
            return False
        if qe <= 0:
            return False
    return True


def _power(s: QSeries, p: int) -> QSeries:
    piece = s ** abs(p)
    return piece.invert() if p < 0 else piece


def _combine(series_factors, head: QSeries) -> QSeries:
    out = head
    for s, p in series_factors:
        out = out * _power(s, p)
    return out


def _product(node, scale: int, in_sum: bool, parts: bool = False):
    """A product of factors to integer powers, lowered onto the series layer.

    Plain q- and z-powers, scalars and the lead monomials of Pochhammer and
    theta factors (``binomials``) fuse into one exact head monomial. General
    factors (sums, qbinom, num, and runs to a power p other than +-1, raised in
    log |p| products) are series multiplied into the head, and general divisors
    are inverted. Other runs are then applied to that product in place: they have
    valuation 0 and are exact at any order, so only the head and the general
    factors decide the early exit above the order and the working-order lift.
    A factor whose lead is 1 (``_unit_lead``) is read only after that exit.
    A product without general factors is its head times its runs, which
    ``_from_last`` may reach from the product's last term. With parts, a
    product with one general factor X that needs no lift hands back its
    parts instead of itself: its folded head (coeff, zexp, qexp), its reads
    to the powers +-1 and X. The sum it is a term of adds them in Horner
    form (``_horner``). A product with a formal z in its head or reads is
    built as without parts (``_held``), so its error is raised at its own
    index.
    """
    items: list = []
    _product_items(node, 1, items, scale, in_sum)
    static = None
    if all(item[0] != _POW for item in items):
        leaves: list = []
        try:
            static = (_resolve(items, 1, None, leaves), leaves)
        except PoleError:
            pass

    def run(st: _St) -> QSeries:
        env = st.env
        ctx = st.ctx
        if static is not None:
            scalar, leaves = static
        else:
            leaves = []
            scalar = _resolve(items, 1, env, leaves)
        fused_z = 0
        fused_q = 0
        general: list = []
        reads: list = []
        vanishes = False
        for (kind, data), p in leaves:
            if kind == _Q:
                fused_q += p * data(env)
            elif kind == _Z:
                fused_z += p * data(env)
            elif kind == _POCH:
                resolve, positive = data
                args = resolve(env)
                if args[2] == 0:
                    # An empty product still holds its place among the reads
                    # (``_from_last`` pairs them by place).
                    if abs(p) == 1:
                        reads.append((args, p))
                    continue
                if positive or _unit_lead(ctx, args[0]):
                    reads.append((args, p))
                    continue
                (c, ze, qe), runs = st.read(args)
                if not c:
                    if p < 0:
                        raise PoleError("division by a vanishing factor")
                    vanishes = True
                    continue
                if c != 1:
                    scalar *= Fraction(c) ** p
                fused_z += p * ze
                fused_q += p * qe
                if runs or abs(p) == 1:
                    reads.append((args, p))
            else:
                general.append((data, p))
        general += [(_runs_series(args, p > 0), abs(p)) for args, p in reads if abs(p) > 1]
        zi = ctx.z_interp
        fused_min = fused_q + (fused_z * zi.qexp if zi is not None else 0)
        if not general and not reads and not vanishes:
            return monomial(ctx, scalar, fused_z, fused_q)
        # The head is exact at any order; it lifts only against general factors.
        lift = max(0, -fused_min) if general else 0
        evaluated = []
        saw_zero = vanishes
        val = fused_min
        for f, p in general:
            s = f(st)
            if s.is_zero():
                if p >= 0:
                    saw_zero = True
                    evaluated.append((s, p))
                    continue
                s = _divisor_above(f, st)
            # The inverse of a factor of valuation v > 0 is exact only up to 2v
            # below the working order, so a divisor lifts by twice its share.
            contrib = p * s.min_exponent()
            val += contrib
            lift += max(0, -contrib * (2 if p < 0 else 1))
            evaluated.append((s, p))
        # Valuations add, so a product of nonzero factors above the order is zero.
        if not saw_zero and val > ctx.order:
            return zero(ctx)
        wst = st
        if lift:
            # Negative minimal exponents would eat into the window during the
            # multiplications, so redo every general factor above the order.
            wst = st.lifted(lift)
            evaluated = [(f(wst), p) for f, p in general]
            for s, p in evaluated:
                if p < 0 and s.is_zero():
                    raise PoleError("division by a vanishing factor")
        if vanishes or (saw_zero and not lift):
            return zero(ctx)
        if not general:
            return _from_last(ctx, st.lasts, run, reads, monomial(ctx, scalar, fused_z, fused_q),
                              st.read, st.row)
        reads = [(args, p) for args, p in reads if abs(p) == 1]
        if parts and not lift and len(general) == 1:
            x = _power(*evaluated[0])
            held = _held(st, _fold(ctx, scalar, fused_z, fused_q), reads, x)
            if held is not None:
                return held
            out = monomial(ctx, scalar, fused_z, fused_q) * x
        else:
            out = _combine(evaluated, monomial(wst.ctx, scalar, fused_z, fused_q))
        return retruncate(times_binomials(out, *_runs(st.read, reads)), ctx)

    return run


def _held(st: _St, head: tuple, reads: list, x: QSeries):
    """The parts (head, reads, x) of the term head * runs * x, or None when it is built at its own index.

    head = (coeff, zexp, qexp) is folded, with qexp >= 0. Only under a formal
    z, with z in the head or the reads, may the product raise (a divisor
    1 - c*z^a, a z-column past the guard); such a term is not held, and
    neither is one with a zero head. So every held head has zexp 0 and
    every run of a held read has a positive q-exponent.
    """
    if not head[0]:
        return None
    if st.ctx.z_interp is None and (
            head[1] or any(c and ze for args, _ in reads for c, ze, _ in args[0])):
        return None
    return head, reads, x


def _runs_series(args, numerator: bool):
    """A read's runs, or their inverse, as one series for ``_combine`` to raise to its power."""

    def run(st: _St) -> QSeries:
        runs = st.read(args)[1]
        return times_binomials(one(st.ctx), runs if numerator else (), () if numerator else runs)

    return run


def _divisor_above(f, st: _St) -> QSeries:
    """A divisor that truncates to zero, evaluated at a working order it survives.

    Its valuation may lie above the order. Working orders rise by doubling
    lifts up to hard_cap; a divisor still zero there is a pole.
    """
    top = hard_cap(st.ctx) - st.ctx.order
    lift = 1
    while True:
        s = f(st.lifted(lift))
        if not s.is_zero():
            return s
        if lift == top:
            raise PoleError("division by a vanishing factor")
        lift = min(2 * lift, top)


# -- summation loops ---------------------------------------------------------


NO_GROWTH = "does not grow"  # a refusal's reason, read by the validator


class _Ray:
    """A sum's term bound along one ray, lowered on first use, and its last answer.

    lower holds the ``growth.lower_floor`` arguments until the first query,
    floor the closure they give; memo keeps the last query (floor, order, a,
    b) with its answer, so a repeated query costs a comparison. node is the
    sum a refusal names; a range sum's rays end, are never refused, and
    name none.
    """

    __slots__ = ("lower", "floor", "memo", "node")

    def __init__(self, body, subs, scale: int, inner=(), bound=None, *, node=None):
        self.lower = (body, subs, scale, inner, bound)
        self.floor = None
        self.memo = (None, None)
        self.node = node

    def refuse(self, why: str) -> TerminationError:
        """The refusal of this ray: its term bound ``why``, named by its sum's indices."""
        node, where = self.node, ""
        if node is not None:
            names = node.indices if isinstance(node, ChainSum) else (
                (node.outer, node.inner) if isinstance(node, Hecke) else (node.index,))
            where = f" (in the sum over {', '.join(names)})"
        return TerminationError(f"sum has no certified last index: its term bound {why}{where}",
                                node, why)

    def indices(self, st: _St, a: int, b: int | None = None):
        """The ray indices t >= a, up to b, worth visiting, as ranges in the order the floor rises.

        At every other index the term truncates to zero at the working order
        (``growth.range_values``), so the sum stops at a certified last
        index. Without b the ray ends where its floor passes the order for
        good; such a ray is refused when its floor is unproven or does not
        grow, or when it reaches the order past hard_cap. A ray with an end
        and an unproven floor visits every index up to it.
        """
        if b is not None and b < a:
            return ()
        if self.floor is None:
            self.floor = growth.lower_floor(*self.lower)
        floor = self.floor(st.env, _zfold(st.ctx))
        order = st.ctx.order
        query = (floor, order, a, b)
        if self.memo[0] == query:
            return self.memo[1]
        if b is None and not growth.grows_forward(floor):
            raise self.refuse("is unproven" if floor is None else NO_GROWTH)
        out = (range(a, b + 1),) if floor is None else growth.range_values(floor, a, b, order)
        if b is None and out and max(out[0][0], out[-1][-1]) > hard_cap(st.ctx):
            raise self.refuse("reaches the order past the index cap")
        self.memo = (query, out)
        return out


def _zfold(ctx: EvalContext):
    zi = ctx.z_interp
    return None if zi is None else (zi.sign, zi.qexp)


def _one_sided(st: _St, emit, ranges, direction: int, acc: _Sum) -> None:
    """Add emit(direction * t) into acc for every t of ranges, in order.

    ranges are a ray's indices worth visiting (``_Ray.indices``). Each term
    spends one unit of the budget. A term that emit hands back as parts
    (``_product``) is held, in visiting order, and the held terms are added
    in Horner form once the ray is done (``_horner``).
    """
    held = []
    for r in ranges:
        for t in r:
            st.budget.spend()
            term = emit(direction * t)
            if type(term) is tuple:
                held.append(term)
            else:
                acc.add(term)
    if held:
        _horner(st, held, acc)


def _horner(st: _St, held: list, acc: _Sum) -> None:
    """Add the terms head * runs * x of held, parts in visiting order, into acc in Horner form.

    From the last term down, H <- x_k + R_k * H, where R_k takes term k's
    head and runs to term k + 1's: the ratio of the heads times the factors
    that changed (``series._delta``), one kernel call on H. The first term's
    head and runs are applied to H at the end. Every head is at or above
    q^0, so H_k is exact up to q^(order - h_k), h_k its head's q-exponent,
    whichever way the heads move (a shift down drops only what the shift up
    by h_k pushes past the order), and the last head applied makes the sum
    exact at the order. No R_k can raise: held terms carry no formal z
    (``_held``). A step is refused when the reads do not pair up (``_delta``
    gives None); then term k + 1's head and runs are applied to H, which is
    added, and H starts again from x_k.
    """
    read = st.read
    head, reads, h = held[-1]
    for k in range(len(held) - 2, -1, -1):
        prev, prev_reads, x = held[k]
        step = _delta(read, prev_reads, reads)
        if step is None:
            acc.add(times_binomials(h, *_runs(read, reads), head))
            h = x
        else:
            ratio = 1 if head[0] == prev[0] else Fraction(head[0]) / prev[0]
            h = x + times_binomials(h, *step, (ratio, 0, head[2] - prev[2]))
        head, reads = prev, prev_reads
    acc.add(times_binomials(h, *_runs(read, reads), head))


def _chain_sum(node: ChainSum, scale: int):
    idxs = node.indices
    body = _term(node.body, scale) if len(idxs) == 1 else _compile(node.body, scale, True)
    # Inner indices run over the box 0 <= n_i <= n_1.
    sub = {i: growth.mvar(i) for i in idxs[1:]}
    sub[idxs[0]] = RAY_T
    ray = _Ray(node.body, (sub,), scale, idxs[1:], RAY_T, node=node)

    def run(st: _St) -> QSeries:
        inner = st.binding()
        env = inner.env

        def level(i: int, bound: int, acc: _Sum) -> None:
            if i == len(idxs):
                st.budget.spend()
                acc.add(body(inner))
                return
            for v in range(0, bound + 1):
                env[idxs[i]] = v
                level(i + 1, v, acc)

        def emit(v: int):
            env[idxs[0]] = v
            if len(idxs) == 1:
                # The leaf's unit, as at the last level of a longer chain.
                st.budget.spend()
                return body(inner)
            acc = _Sum()
            level(1, v, acc)
            return acc.series(st.ctx)

        acc = _Sum()
        _one_sided(st, emit, ray.indices(st, 0), 1, acc)
        return acc.series(st.ctx)

    return run


def _over_z(node, body, scale: int):
    """A sum over node's index in Z of body, rays up from 0 and down from -1, both certified first."""
    index = node.index
    term = _term(body, scale)
    up, down = (_Ray(body, ({index: t},), scale, node=node) for t in (RAY_T, growth.mneg(RAY_T)))

    def run(st: _St) -> QSeries:
        inner = st.binding()

        def emit(n: int):
            inner.env[index] = n
            return term(inner)

        ups, downs = up.indices(st, 0), down.indices(st, 1)
        acc = _Sum()
        _one_sided(st, emit, ups, 1, acc)
        _one_sided(st, emit, downs, -1, acc)
        return acc.series(st.ctx)

    return run


def _range_sum(node: RangeSum, scale: int, in_sum: bool):
    body = _term(node.body, scale)
    lo_of, hi_of = int_closure(node.lo), int_closure(node.hi)
    # The two rays of a two-sided sum: j = t over [max(lo, 0), hi] and, below
    # 0, j = -t over [max(1, -hi), -lo]. Each skips the terms above the order
    # and visits the others as its floor rises, so that a product's window
    # does not grow from one term to the next (``_from_last``).
    up, down = (_Ray(node.body, ({node.index: t},), scale) for t in (RAY_T, growth.mneg(RAY_T)))

    def run(st: _St) -> QSeries:
        lo = lo_of(st.env)
        hi = hi_of(st.env)
        inner = st.binding()
        if in_sum:
            # The terms the products held at each index in the last run are
            # stepped from at the same index (``_from_last``); this run's row
            # replaces that one, so the sum holds one row, as wide as its range.
            prev = st.lasts.get(run, {})
            st.lasts[run] = row = {}

        def emit(v: int):
            inner.env[node.index] = v
            if in_sum:
                inner.row = row[v] = prev.get(v) or {}
            return body(inner)

        acc = _Sum()
        _one_sided(st, emit, up.indices(st, max(lo, 0), hi), 1, acc)
        _one_sided(st, emit, down.indices(st, max(1, -hi), -lo), -1, acc)
        return acc.series(st.ctx)

    return run


def _pole_split(body, den):
    """The node body / (1 + q^den) of an Appell or Hecke term."""
    one = Rational(value=Fraction(1))
    return body if den is None else Div(left=body, right=Add(left=one, right=QPow(exp=den)))


def _hecke(node: Hecke, scale: int):
    body = _pole_split(node.body, node.den)
    term = _compile(body, scale, True)
    half = node.region == "half"
    # Row n sums j over [-n, n] (full) or [-n/2, n/2] (half): bound the term
    # at j = +j' and j = -j' with j' relaxed over that half-width.
    width = growth.mmul(RAY_T, growth.mconst(Fraction(1, 2))) if half else RAY_T
    jv = growth.mvar(node.inner)
    subs = ({node.outer: RAY_T, node.inner: jv}, {node.outer: RAY_T, node.inner: growth.mneg(jv)})
    ray = _Ray(body, subs, scale, (node.inner,), width, node=node)

    def run(st: _St) -> QSeries:
        inner = st.binding()
        env = inner.env

        def emit_row(n: int) -> QSeries:
            env[node.outer] = n
            m = n // 2 if half else n
            row = _Sum()
            for j in range(-m, m + 1):
                st.budget.spend()
                env[node.inner] = j
                row.add(term(inner))
            return row.series(st.ctx)

        acc = _Sum()
        _one_sided(st, emit_row, ray.indices(st, 0), 1, acc)
        return acc.series(st.ctx)

    return run


# -- lowering ----------------------------------------------------------------


def _term(node, scale: int):
    """A sum's body lowered for ``_one_sided``: a product there may hand back its parts."""
    if isinstance(node, (Mul, Div, Pow, Neg)):
        return _product(node, scale, True, True)
    return _compile(node, scale, True)


def _add(node, scale: int, in_sum: bool):
    """A chain of + and - as its signed terms, added into one running sum in place."""
    terms: list = []

    def collect(n, sign):
        if isinstance(n, Add):
            collect(n.left, sign)
            collect(n.right, sign)
        elif isinstance(n, Sub):
            collect(n.left, sign)
            collect(n.right, -sign)
        else:
            terms.append((sign, _compile(n, scale, in_sum)))

    collect(node, 1)

    def run(st: _St) -> QSeries:
        acc = _Sum()
        for sign, f in terms:
            acc.add(f(st), sign)
        return acc.series(st.ctx)

    return run


def _compile(node, scale: int, in_sum: bool = False):
    """Lower an expression node to a plan: a closure from a frame to its series.

    in_sum says that the node lies in the body of a sum, where a range sum
    holds a row of its products' terms (``_range_sum``).
    """
    if isinstance(node, Rational):
        value = node.value
        return lambda st: monomial(st.ctx, value)
    if isinstance(node, QPow):
        e = int_closure(node.exp) if node.exp is not None else (lambda env: scale)
        return lambda st: monomial(st.ctx, 1, 0, e(st.env))
    if isinstance(node, ZPow):
        e = int_closure(node.exp) if node.exp is not None else (lambda env: 1)
        return lambda st: monomial(st.ctx, 1, e(st.env), 0)
    if isinstance(node, NumPoly):
        v = int_closure(node.poly)
        return lambda st: monomial(st.ctx, v(st.env))
    if isinstance(node, (Add, Sub)):
        return _add(node, scale, in_sum)
    if isinstance(node, (Mul, Div, Pow, Neg, Poch, Theta)):
        return _product(node, scale, in_sum)
    if isinstance(node, QBinom):
        top, bottom = int_closure(node.top), int_closure(node.bottom)
        return lambda st: qbinomial(st.ctx, top(st.env), bottom(st.env))
    if isinstance(node, ChainSum):
        return _chain_sum(node, scale)
    if isinstance(node, BilateralSum):
        return _over_z(node, node.body, scale)
    if isinstance(node, RangeSum):
        return _range_sum(node, scale, in_sum)
    if isinstance(node, Appell):
        return _over_z(node, _pole_split(node.num, node.den), scale)
    if isinstance(node, Hecke):
        return _hecke(node, scale)
    kind = type(node).__name__

    def unsupported(st):
        raise SpecError(f"unsupported expression node {kind}")

    return unsupported


# -- entry points ------------------------------------------------------------


def bindings_env(spec: IdentitySpec, bindings: dict | None) -> dict:
    """Resolve and range-check parameter bindings for a spec."""
    env: dict = {}
    given = dict(bindings or {})
    for p in spec.params:
        if p.name not in given:
            raise SpecError(f"missing binding for parameter {p.name!r}")
        v = int(given.pop(p.name))
        hi = p.hi if isinstance(p.hi, int) else env[p.hi]
        if not (p.lo <= v <= hi):
            raise SpecError(f"parameter {p.name}={v} outside {p.lo}..{hi}")
        env[p.name] = v
    if given:
        stray = ", ".join(sorted(given))
        raise SpecError(f"unknown parameter bindings: {stray}")
    return env


def context_for(spec: IdentitySpec, env: dict, order: int | None = None) -> EvalContext:
    """Build the evaluation context a spec calls for."""
    z_interp = None
    if spec.zbind is not None:
        z_interp = Monomial(spec.zbind.sign, int_eval(spec.zbind.qexp, env))
    return EvalContext(spec.scale, spec.order if order is None else order, z_interp)


def _run(plan, ctx: EvalContext, env: dict, max_terms: int | None) -> QSeries:
    st = _St(ctx, env, _Budget(max_terms), {}, {})
    try:
        return plan(st)
    except KeyError as e:
        raise SpecError(f"unbound identifier {e.args[0]!r}") from e


def evaluate(spec: IdentitySpec, bindings: dict | None = None, side: str = "lhs",
             order: int | None = None, max_terms: int | None = None) -> QSeries:
    """Evaluate one side of an identity spec to a truncated series.

    The side is lowered on its first evaluation and its plan kept on the spec.
    """
    if side not in ("lhs", "rhs"):
        raise SpecError("side must be 'lhs' or 'rhs'")
    env = bindings_env(spec, bindings)
    ctx = context_for(spec, env, order)
    plan = spec.plans.get(side)
    if plan is None:
        plan = spec.plans[side] = _compile(spec.lhs if side == "lhs" else spec.rhs, spec.scale)
    return _run(plan, ctx, env, max_terms)


def evaluate_expr(expr, scale: int = 1, order: int = 50, z_interp: Monomial | None = None,
                  env: dict | None = None, max_terms: int | None = None) -> QSeries:
    """Evaluate a bare expression node to a truncated series."""
    return _run(_compile(expr, scale), EvalContext(scale, order, z_interp), dict(env or {}),
                max_terms)
