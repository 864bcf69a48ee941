"""Core series arithmetic against independently computed expectations."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from baileyforge import (
    ContextMismatchError,
    DivergentProductError,
    EvalContext,
    Monomial,
    NonUnitLeadingError,
    QSeries,
    ZDegreeError,
    dilate,
    equal_up_to,
    first_mismatch,
    monomial,
    one,
    poch_finite,
    poch_infinite,
    qbinomial,
    render,
    zero,
)
from baileyforge import oracle
from baileyforge.dsl import evaluate_expr, parse_expr
from baileyforge.series import (
    _fold,
    _mul_raw,
    binomials,
    retruncate,
    times_binomials,
)

import oracles

CTX20 = EvalContext(scale=1, order=20)

# oracle: Euler pentagonal recurrence, partition_counts(20)
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
              231, 297, 385, 490, 627]

# oracle: pentagonal number theorem, euler_product_coeffs(20)
EULER = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0]

# oracle: gaussian_binom_poly via the additive recurrence
QBINOM_4_2 = [1, 1, 2, 1, 1]
QBINOM_6_3 = [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]

# oracle: tl_poch((1,1,0),1,2): (z;q)_2 = 1 - z - z*q + z^2*q
POCH_Z_2 = {(0, 0): F(1), (0, 1): F(-1), (1, 1): F(-1), (1, 2): F(1)}

# by hand: (z;q)_1 (q/z;q)_1 = 1 - z + q - q/z
POCH_PAIR_1 = {(0, 0): F(1), (0, 1): F(-1), (1, -1): F(-1), (1, 0): F(1)}


def todict(s):
    return {(qe, ze): c for qe, ze, c in s.terms()}


class TestBuilders:
    def test_zero_one(self):
        assert zero(CTX20).is_zero()
        assert todict(one(CTX20)) == {(0, 0): F(1)}
        assert one(CTX20).min_exponent() == 0
        assert zero(CTX20).min_exponent() is None

    def test_monomial_basic(self):
        m = monomial(CTX20, F(3, 2), zexp=-1, qexp=4)
        assert todict(m) == {(4, -1): F(3, 2)}
        assert monomial(CTX20, 0).is_zero()
        assert monomial(CTX20, 1, 0, 21).is_zero()

    def test_monomial_folding_positive(self):
        ctx = EvalContext(order=10, z_interp=Monomial(1, 3))
        m = monomial(ctx, 2, zexp=2, qexp=1)
        assert todict(m) == {(7, 0): F(2)}

    def test_monomial_folding_negative_sign(self):
        ctx = EvalContext(order=10, z_interp=Monomial(-1, 1))
        assert todict(monomial(ctx, 1, 3, 2)) == {(5, 0): F(-1)}
        assert todict(monomial(ctx, 1, -2, 4)) == {(2, 0): F(1)}
        assert todict(monomial(ctx, 1, -1, 4)) == {(3, 0): F(-1)}

    def test_z_guard(self):
        # order 10 admits |zexp| <= 5 (binom(5,2)=10); 6 must abort
        ctx = EvalContext(order=10)
        monomial(ctx, 1, 5, 0)
        with pytest.raises(ZDegreeError):
            monomial(ctx, 1, 6, 0)

    def test_z_guard_scale2(self):
        ctx = EvalContext(scale=2, order=50)
        monomial(ctx, 1, 7, 0)
        with pytest.raises(ZDegreeError):
            monomial(ctx, 1, 8, 0)

    def test_z_cap_closed_form_matches_the_search(self):
        # The cap was found by search: the largest j >= 1 with
        # scale*binom(j, 2) <= order.
        def searched(scale, order):
            j = 1
            while scale * (j + 1) * j // 2 <= order:
                j += 1
            return j

        for scale in range(1, 13):
            for order in range(5000):
                assert EvalContext(scale, order).z_cap == searched(scale, order), (scale, order)


class TestRingOps:
    def test_add_sub(self):
        a = monomial(CTX20, 1, 0, 1) + monomial(CTX20, 2, 1, 1)
        b = a - monomial(CTX20, 2, 1, 1)
        assert todict(b) == {(1, 0): F(1)}
        assert (a - a).is_zero()

    def test_scalar(self):
        a = monomial(CTX20, F(1, 2), 0, 3) * 4
        assert todict(a) == {(3, 0): F(2)}
        assert (a * 0).is_zero()
        assert todict(2 + zero(CTX20)) == {(0, 0): F(2)}

    def test_mul_truncates(self):
        a = monomial(CTX20, 1, 0, 15)
        b = monomial(CTX20, 1, 0, 10)
        assert (a * b).is_zero()

    def test_context_mismatch(self):
        other = EvalContext(order=10)
        with pytest.raises(ContextMismatchError):
            one(CTX20) + one(other)
        with pytest.raises(ContextMismatchError):
            first_mismatch(one(CTX20), one(other))

    def test_pow(self):
        s = one(CTX20) + monomial(CTX20, 1, 0, 1)
        cube = s**3
        assert [cube.coefficient(n) for n in range(4)] == [1, 3, 3, 1]
        assert equal_up_to(s**0, one(CTX20))


class TestInvert:
    def test_partition_series(self):
        pe = poch_infinite(CTX20, (1, 0, 1), 1)
        assert [pe.coefficient(n) for n in range(21)] == EULER
        pinv = pe.invert()
        assert [pinv.coefficient(n) for n in range(21)] == PARTITIONS
        assert equal_up_to(pe * pinv, one(CTX20))

    def test_shifted_leading(self):
        s = monomial(CTX20, 2, 0, 3) + monomial(CTX20, 1, 0, 5)
        inv = s.invert()
        assert equal_up_to(s * inv, one(CTX20))
        assert inv.min_exponent() == -3

    def test_z_leading_inverse_trips_guard(self):
        # inverse of a z-leading series has unbounded z-degree; guard aborts
        s = monomial(CTX20, 2, 1, 3) + monomial(CTX20, 1, 0, 5)
        with pytest.raises(ZDegreeError):
            s.invert()

    def test_non_monomial_leading_rejected(self):
        s = one(CTX20) - monomial(CTX20, 1, 1, 0)
        with pytest.raises(NonUnitLeadingError):
            s.invert()
        with pytest.raises(NonUnitLeadingError):
            zero(CTX20).invert()


def geometric_inverse(s):
    """The series core's earlier inverse, kept as a reference: 1/(1+u) as
    sum_k (-u)^k, one full truncated product per power of u, on the term
    lists of ``oracles``."""
    c = todict(s)
    m = min(qe for qe, _ in c)
    ((mz, mc),) = [(ze, v) for (qe, ze), v in c.items() if qe == m]
    work = s.ctx.order + max(0, m)
    shifted = {(qe - m, ze - mz): F(v) / mc for (qe, ze), v in c.items()
               if (qe - m, ze - mz) != (0, 0)}
    out = oracles.tl_one()
    term = oracles.tl_one()
    for _ in range(work + 1):
        term = oracles.tl_scale(oracles.tl_mul(term, shifted, work), -1)
        if not term:
            break
        out = oracles.tl_add(out, term)
    res = {}
    for (qe, ze), v in out.items():
        if qe - m <= s.ctx.order:
            res.setdefault(qe - m, {})[ze - mz] = v / mc
    return QSeries(s.ctx, res)


def assert_inverse(s, inv):
    """s * inv is 1 wherever truncation leaves the product known: a lead at
    q^m with m < 0 leaves the top -m exponents of the product unknown."""
    top = s.ctx.order + min(0, s.min_exponent())
    prod = s * inv
    for qe, ze, c in prod.terms():
        if qe <= top:
            assert (qe, ze, c) == (0, 0, 1)
    assert prod.coefficient(0) == 1


def coefficient_types(s):
    return {type(c) for _, _, c in s.terms()}


class TestRecurrenceInverse:
    @pytest.mark.parametrize("coeff,zexp,qexp", [
        (3, 2, -1),
        (-1, 0, 0),
        (F(2, 3), 0, 0),
        (F(-5, 2), 0, -3),
        (1, 0, -4),
        (7, -1, 2),
    ])
    def test_inverse_of_lead_times_unit(self, coeff, zexp, qexp):
        body = one(CTX20) + monomial(CTX20, 2, 0, 1) - monomial(CTX20, F(1, 2), 0, 3)
        s = monomial(CTX20, coeff, zexp, qexp) * body
        inv = s.invert()
        assert inv.min_exponent() == -qexp
        assert inv.coefficient(-qexp, -zexp) == 1 / F(coeff)
        assert_inverse(s, inv)
        assert inv == geometric_inverse(s)

    def test_z_carrying_unit_part(self):
        # u holds z^(+-1) at q-exponents that grow with the z-degree
        s = one(CTX20) - monomial(CTX20, 1, 1, 4) + monomial(CTX20, 3, -1, 5)
        inv = s.invert()
        assert_inverse(s, inv)
        assert inv == geometric_inverse(s)
        assert inv.coefficient(8, 2) == 1

    def test_empty_inverse_when_lead_is_beyond_the_order(self):
        # order + m < 0: every term of the inverse lies above the order
        s = monomial(CTX20, 2, 0, -21) + monomial(CTX20, 1, 0, -20)
        assert s.invert().is_zero()
        assert geometric_inverse(s).is_zero()
        # order + m == 0 keeps exactly the inverted lead
        s = monomial(CTX20, 4, 0, -20) + monomial(CTX20, 1, 0, -19)
        assert todict(s.invert()) == {(20, 0): F(1, 4)}

    def test_long_product_matches_partitions(self):
        ctx = EvalContext(order=60)
        inv = poch_finite(ctx, (1, 0, 1), 1, 24).invert()
        # 1/(q;q)_24 counts partitions into parts <= 24, equal to p(n) for n <= 24
        assert [inv.coefficient(n) for n in range(25)] == oracles.partition_counts(24)
        assert inv == geometric_inverse(poch_finite(ctx, (1, 0, 1), 1, 24))


class TestCoefficientTypes:
    def test_integral_series_hold_only_ints(self):
        ctx = EvalContext(order=60)
        pochs = poch_finite(ctx, (1, 0, 1), 1, 24)
        assert coefficient_types(pochs) == {int}
        assert coefficient_types(pochs.invert()) == {int}
        assert coefficient_types(qbinomial(ctx, 12, 5)) == {int}
        assert coefficient_types(poch_infinite(ctx, (1, 0, 1), 1).invert()) == {int}

    def test_entry_points_normalise(self):
        assert coefficient_types(monomial(CTX20, F(6, 3), 0, 1)) == {int}
        assert coefficient_types(monomial(CTX20, F(1, 3), 0, 1)) == {F}
        assert coefficient_types(one(CTX20) * F(4, 2)) == {int}
        assert coefficient_types(QSeries(CTX20, {0: {0: F(5, 1)}, 1: {0: 3}})) == {int}
        assert coefficient_types(QSeries(CTX20, {0: {0: F(5, 2)}})) == {F}

    def test_rational_leads_never_give_floats(self):
        for lead in (3, -1, F(2, 3), 7):
            s = monomial(CTX20, lead, 0, -1) * poch_finite(CTX20, (1, 0, 1), 1, 5)
            inv = s.invert()
            for series in (inv, s * inv, inv * inv, inv * 5, inv * F(1, 7)):
                assert coefficient_types(series) <= {int, F}
        s = one(CTX20) * 3 + monomial(CTX20, 1, 0, 1)
        assert coefficient_types(s.invert()) == {F}

    def test_sums_keep_integral_coefficients_as_ints(self):
        half = monomial(CTX20, F(1, 2))
        s = half + monomial(CTX20, F(1, 2), 0, 1) + half
        assert type(s.coefficient(0)) is int and s.coefficient(0) == 1
        assert type(s.coefficient(1)) is F
        s = evaluate_expr(parse_expr("1/2 + q/2 + 1/2"), order=3)
        assert [type(c) for _, _, c in s.terms()] == [int, F]

    def test_inverse_with_a_non_unit_lead_keeps_ints(self):
        # by hand: 1/(2 + 4q) = 1/2 - q + 2q^2 - 4q^3 + ...
        inv = (one(CTX20) * 2 + monomial(CTX20, 4, 0, 1)).invert()
        assert [inv.coefficient(n) for n in range(4)] == [F(1, 2), -1, 2, -4]
        assert all(type(c) is int for _, _, c in inv.terms() if c.denominator == 1)


# Leads with a nonzero coefficient, any z-exponent in the formal case.
_leads = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.integers(min_value=-1, max_value=1),
    st.integers(min_value=-3, max_value=3),
)
_tails = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=-4, max_value=4),
    ),
    max_size=5,
)


class TestInverseMatchesGeometric:
    @settings(max_examples=40, deadline=None)
    @given(_leads, _tails)
    def test_formal(self, lead, tail):
        c, ze, qe = lead
        s = monomial(CTX20, c, ze, qe)
        for k, v in tail:
            s = s + monomial(CTX20, v, ze, qe + k)
        inv = s.invert()
        assert inv == geometric_inverse(s)
        assert coefficient_types(inv) <= {int, F}

    @settings(max_examples=40, deadline=None)
    @given(_leads, _tails, st.sampled_from([1, -1]), st.integers(min_value=0, max_value=3))
    def test_folded(self, lead, tail, sign, zq):
        ctx = EvalContext(order=20, z_interp=Monomial(sign, zq))
        c, ze, qe = lead
        s = monomial(ctx, c, ze, qe)
        for k, v in tail:
            s = s + monomial(ctx, v, 0, s.min_exponent() + k)
        inv = s.invert()
        assert inv == geometric_inverse(s)
        assert_inverse(s, inv)


class TestPochhammer:
    def test_long_finite_product_is_not_recursive(self):
        # one factor per t: a recursive prefix build would exceed the stack
        s = poch_finite(EvalContext(order=10), (1, 0, 1), 1, 1500)
        assert [s.coefficient(n) for n in range(11)] == EULER[:11]

    def test_finite_z(self):
        assert todict(poch_finite(CTX20, (1, 1, 0), 1, 2)) == POCH_Z_2

    def test_finite_pair(self):
        p = poch_finite(CTX20, (1, 1, 0), 1, 1) * poch_finite(CTX20, (1, -1, 1), 1, 1)
        assert todict(p) == POCH_PAIR_1

    def test_finite_validation(self):
        with pytest.raises(ValueError):
            poch_finite(CTX20, (1, 0, 1), 1, -1)
        with pytest.raises(ValueError):
            poch_finite(CTX20, (1, 0, 1), 0, 2)
        assert equal_up_to(poch_finite(CTX20, (1, 0, 1), 1, 0), one(CTX20))

    def test_infinite_strict_rejects_nonpositive(self):
        with pytest.raises(DivergentProductError):
            poch_infinite(CTX20, (-1, 0, 0), 1)
        with pytest.raises(DivergentProductError):
            poch_infinite(CTX20, (2, 0, -1), 1)

    def test_infinite_zero_collapse(self):
        # the factor (1 - q^0) = 0 collapses the whole product in either mode
        assert poch_infinite(CTX20, (1, 0, 0), 1, strict=False).is_zero()
        assert poch_infinite(CTX20, (1, 0, 0), 1).is_zero()
        folded = EvalContext(order=20, z_interp=Monomial(1, 0))
        assert poch_infinite(folded, (1, 1, 0), 1).is_zero()

    def test_infinite_relaxed_laurent(self):
        # (1 - 2q^{-1}) * (1-2) * (1-2q) * ... handled exactly when relaxed
        s = poch_infinite(CTX20, (2, 0, -1), 1, strict=False)
        assert s.min_exponent() < 0
        # Through the lead q^-1, the factor 1 - 2q^21 still reaches q^20, so
        # the reference is built one order higher.
        work = EvalContext(order=21)
        ref = one(work)
        for t in range(23):
            ref = ref * (one(work) - monomial(work, 2, 0, -1 + t))
        assert equal_up_to(s, retruncate(ref, CTX20))

    def test_infinite_formal_z_base(self):
        # (z;q)_inf is fine in strict mode: factors carry z
        s = poch_infinite(CTX20, (1, 1, 0), 1)
        assert s.coefficient(0, 0) == 1
        assert s.coefficient(0, 1) == -1

    def test_scale2_step(self):
        ctx = EvalContext(scale=2, order=12)
        # (q^(1/2); q)_inf: base exponent 1, step 2 in scaled units
        s = poch_infinite(ctx, (1, 0, 1), 2)
        assert s.coefficient(1) == -1
        assert s.coefficient(2) == 0
        assert s.coefficient(3) == -1


# Bases (coeff, zexp, qexp) for multi-base products.
_base = st.tuples(
    st.sampled_from([1, -1, 2, -2, F(1, 2)]),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=6),
)


def _negative_share(ctx, bases, step, length):
    """Sum of the negative folded factor exponents: the order lift that makes
    truncated products of the factors exact up to ctx.order."""
    zq = ctx.z_interp.qexp if ctx.z_interp is not None else 0
    lift = 0
    for _, ze, qe in bases:
        e = qe + ze * zq
        t = 0
        while e + t * step < 0 and (length is None or t < length):
            lift -= e + t * step
            t += 1
    return lift


def _built(build):
    try:
        return build()
    except ZDegreeError:
        return None


class TestMultiBaseProducts:
    """poch_finite/poch_infinite on a tuple of bases is the product over them."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_base, min_size=1, max_size=3).map(tuple),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10),
           st.booleans(),
           st.one_of(st.none(), st.tuples(st.sampled_from([1, -1]),
                                          st.integers(min_value=-2, max_value=2))))
    def test_product_of_single_bases(self, bases, step, length, infinite, fold):
        zi = None if fold is None else Monomial(*fold)
        ctx = EvalContext(order=12, z_interp=zi)
        n = None if infinite else length
        work = EvalContext(order=12 + _negative_share(ctx, bases, step, n), z_interp=zi)

        def poch(b):
            if infinite:
                return poch_infinite(work, b, step, strict=False)
            return poch_finite(work, b, step, length)

        def singles():
            out = one(work)
            for b in bases:
                out = out * poch(b)
            return out

        got = _built(lambda: poch(bases))
        want = _built(singles)
        if want is None:
            # The reference builds every base, and one alone left the z
            # region (only formal z can, so every exponent here is >= 0). The
            # product of all of them stays in it where the offending terms
            # cancel or a factor 1 - q^0 vanishes: read it from term lists.
            tl = oracles.tl_one()
            for b in bases:
                f = (oracles.tl_poch_inf(b, step, ctx.order) if infinite
                     else oracles.tl_poch(b, step, length, ctx.order))
                tl = oracles.tl_mul(tl, f, ctx.order)
            if _over_cap(tl, ctx):
                assert got is None
            else:
                _agrees(got, tl)
            return
        assert got is not None
        assert retruncate(got, ctx) == retruncate(want, ctx)
        assert coefficient_types(got) <= {int, F}

    def test_single_base_and_one_tuple_agree(self):
        assert poch_finite(CTX20, ((1, 1, 0),), 1, 2) == poch_finite(CTX20, (1, 1, 0), 1, 2)
        pair = poch_finite(CTX20, ((1, 1, 0), (1, -1, 1)), 1, 1)
        assert todict(pair) == POCH_PAIR_1

    def test_vanishing_base_before_a_divergent_one_gives_zero(self):
        assert poch_infinite(CTX20, ((1, 0, 0), (2, 0, -1)), 1).is_zero()

    def test_divergent_base_before_a_vanishing_one_raises_its_message(self):
        with pytest.raises(DivergentProductError) as single:
            poch_infinite(CTX20, (2, 0, -1), 1)
        with pytest.raises(DivergentProductError) as pair:
            poch_infinite(CTX20, ((2, 0, -1), (1, 0, 0)), 1)
        assert str(pair.value) == str(single.value) == \
            "infinite product factor (1 - 2*q^-1) has nonpositive order"
        # Two divergent bases: the first one named, as base by base.
        with pytest.raises(DivergentProductError, match=r"\(1 - 3\*q\^-2\)"):
            poch_infinite(CTX20, ((3, 0, -2), (2, 0, -1)), 1)

    def test_precedence_follows_base_order_not_factor_order(self):
        # (q^-2; q)_5 vanishes at its third factor; z^7 leaves the guard cap
        # 6 at the first factor of its own base.
        assert poch_finite(CTX20, ((1, 0, -2), (1, 7, 0)), 1, 5).is_zero()
        with pytest.raises(ZDegreeError) as single:
            poch_finite(CTX20, (1, 7, 0), 1, 5)
        with pytest.raises(ZDegreeError) as pair:
            poch_finite(CTX20, ((1, 7, 0), (1, 0, -2)), 1, 5)
        assert str(pair.value) == str(single.value)

    def test_long_two_base_product_is_not_recursive(self):
        ctx = EvalContext(order=10)
        s = poch_finite(ctx, ((1, 0, 1), (-1, 0, 1)), 1, 1500)
        # (q, -q; q)_n = (q^2; q^2)_n, exact to order 10 once n > 10
        assert s == poch_finite(ctx, (1, 0, 2), 2, 1500)


# Factors (c, a, e) of 1 - c*z^a*q^e for the in-place kernel.
_kernel_coeffs = st.sampled_from([1, -1, 2, -2, F(1, 2), F(-2, 3), F(3, 2)])
_kernel_num = st.tuples(_kernel_coeffs, st.integers(-2, 2), st.integers(0, 6))
_kernel_den = st.tuples(_kernel_coeffs, st.integers(-2, 2), st.integers(1, 6))
_kernel_terms = st.lists(
    st.tuples(st.integers(-3, 6), st.integers(-1, 1), _kernel_coeffs), min_size=1, max_size=4)
_kernel_fold = st.one_of(st.none(), st.tuples(st.sampled_from([1, -1]), st.integers(0, 2)))


def _binomial(ctx, c, a, e):
    return one(ctx) - monomial(ctx, c, a, e)


class TestTimesBinomials:
    """The in-place kernel against the series route it replaced: multiplying
    by each binomial factor and by the inverse of each divisor."""

    @settings(max_examples=200, deadline=None)
    @given(_kernel_terms, st.lists(_kernel_num, max_size=4), st.lists(_kernel_den, max_size=3),
           _kernel_fold)
    def test_matches_products_and_inverses(self, terms, num, den, fold):
        zi = None if fold is None else Monomial(*fold)
        ctx = EvalContext(order=12, z_interp=zi)
        s = zero(ctx)
        for qe, ze, c in terms:
            s = s + monomial(ctx, c, ze, qe)
        assume(not s.is_zero())
        num = [_fold(ctx, *f) for f in num]
        den = [_fold(ctx, *f) for f in den]
        assume(all(e >= 0 for _, _, e in num) and all(e > 0 for _, _, e in den))
        # Series products are exact only from q^0 up, so the reference works
        # above the order by the depth of s below q^0.
        work = EvalContext(order=12 - min(0, s.min_exponent()), z_interp=zi)
        try:
            want = zero(work)
            for qe, ze, c in terms:
                want = want + monomial(work, c, ze, qe)
            for f in num:
                want = want * _binomial(work, *f)
            for f in den:
                want = want * _binomial(work, *f).invert()
        except ZDegreeError:
            return
        num = [f + (1, 1) for f in num]
        den = [f + (1, 1) for f in den]
        try:
            want = retruncate(want, ctx)
        except ZDegreeError:
            with pytest.raises(ZDegreeError):
                times_binomials(s, num, den)
            return
        got = times_binomials(s, num, den)
        assert got == want
        assert all(type(c) is int for _, _, c in got.terms() if c.denominator == 1)

    @settings(max_examples=60, deadline=None)
    @given(_kernel_coeffs, st.integers(-1, 1), st.integers(0, 4), st.integers(1, 3),
           st.one_of(st.none(), st.integers(0, 5)), st.booleans())
    def test_runs_are_their_factors(self, c, a, e, d, count, divide):
        ctx = EvalContext(order=12)
        s = monomial(ctx, 3, 0, -2) + monomial(ctx, 1, 0, 1)
        assume(divide <= (e > 0))
        stop = 20 if count is None else count
        factors = [(c, a, e + u * d, 1, 1) for u in range(stop)]
        run = [(c, a, e, d, count)]
        try:
            want = times_binomials(s, (), factors) if divide else times_binomials(s, factors)
        except ZDegreeError:
            with pytest.raises(ZDegreeError):
                times_binomials(s, (), run) if divide else times_binomials(s, run)
            return
        got = times_binomials(s, (), run) if divide else times_binomials(s, run)
        assert got == want

    def test_integral_results_of_fractions_are_ints(self):
        # by hand: (1/2) * (1 - 2q) = 1/2 - q
        got = times_binomials(monomial(CTX20, F(1, 2)), [(2, 0, 1, 1, 1)])
        assert todict(got) == {(0, 0): F(1, 2), (1, 0): -1}
        assert type(got.coefficient(1)) is int

    def test_lead_is_applied_first(self):
        # by hand: 1/(1 - q) shifted by -q^2: -q^2 - q^3 - ...
        got = times_binomials(one(CTX20), (), [(1, 0, 1, 1, 1)], (-1, 0, 2))
        assert todict(got) == {(k, 0): -1 for k in range(2, 21)}

    def test_divisor_without_a_q_power_is_not_a_unit(self):
        with pytest.raises(NonUnitLeadingError):
            times_binomials(one(CTX20), (), [(1, 1, 0, 1, 1)])

    @pytest.mark.parametrize("src", ["1/poch(q/3, 2*q/5; q)",
                                     "poch(2*q/3, -q^(2)/5; q^(2), 4)/poch(q/2; q)"])
    def test_rational_divisors_over_a_long_window(self, src):
        # The divisors 1 - q/3, 1 - 2q/5 and 1 - q/2 chain about 100 times
        # in the window, each step dividing by their denominators.
        expr = parse_expr(src)
        assert todict(evaluate_expr(expr, order=100)) == oracle.expand_expr(expr, order=100)


# Product bases (coeff, zexp, qexp) reaching below q^0.
_low_base = st.tuples(
    st.sampled_from([1, -1, 2, F(1, 2)]),
    st.integers(min_value=-1, max_value=1),
    st.integers(min_value=-4, max_value=4),
)


class TestBinomials:
    """binomials reads a product exactly as a lead monomial times runs."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_low_base, min_size=1, max_size=2).map(tuple),
           st.integers(min_value=1, max_value=3),
           st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
           st.one_of(st.none(), st.tuples(st.sampled_from([1, -1]),
                                          st.integers(min_value=0, max_value=2))))
    def test_lead_times_runs_is_the_product(self, bases, step, length, fold):
        zi = None if fold is None else Monomial(*fold)
        ctx = EvalContext(order=10, z_interp=zi)
        share = _negative_share(ctx, bases, step, length)
        work = EvalContext(order=10 + share, z_interp=zi)
        try:
            (c, ze, qe), runs = binomials(ctx, bases, step, length)
            got = times_binomials(monomial(ctx, c, ze, qe), runs)
            # Each factor one at a time, every one that reaches the window.
            want = one(work)
            for t in range(length if length is not None else 20 + share):
                for bc, bz, bq in bases:
                    want = want * _binomial(work, bc, bz, bq + t * step)
        except ZDegreeError:
            return
        assert got == retruncate(want, ctx)
        assert (c == 0) == got.is_zero()


class TestQBinomial:
    def test_small(self):
        qb = qbinomial(CTX20, 4, 2)
        assert [qb.coefficient(n) for n in range(5)] == QBINOM_4_2
        qb = qbinomial(CTX20, 6, 3)
        assert [qb.coefficient(n) for n in range(10)] == QBINOM_6_3

    def test_edges(self):
        assert qbinomial(CTX20, 5, -1).is_zero()
        assert qbinomial(CTX20, 5, 6).is_zero()
        assert equal_up_to(qbinomial(CTX20, 5, 0), one(CTX20))
        assert equal_up_to(qbinomial(CTX20, 5, 5), one(CTX20))

    def test_oracle_cross(self):
        for n in range(9):
            for k in range(n + 1):
                ref = oracles.gaussian_binom_poly(n, k)
                qb = qbinomial(CTX20, n, k)
                got = [qb.coefficient(e) for e in range(min(20, len(ref) - 1) + 1)]
                assert got == [F(c) for c in ref[: len(got)]]

    def test_symmetry(self):
        assert equal_up_to(qbinomial(CTX20, 9, 4), qbinomial(CTX20, 9, 5))


class TestCompareRender:
    def test_first_mismatch(self):
        a = one(CTX20) + monomial(CTX20, 2, 1, 3)
        b = one(CTX20) + monomial(CTX20, 3, 1, 3) + monomial(CTX20, 1, 0, 2)
        qe, ze, ca, cb = first_mismatch(a, b)
        assert (qe, ze, ca, cb) == (2, 0, F(0), F(1))
        assert first_mismatch(a, a) is None
        assert equal_up_to(a, a)
        assert not equal_up_to(a, b)

    def test_dilate(self):
        pe = poch_infinite(CTX20, (1, 0, 1), 1)
        d = dilate(pe, 2)
        for n in range(11):
            assert d.coefficient(2 * n) == EULER[n]
            assert d.coefficient(2 * n + 1) == 0
        with pytest.raises(ValueError):
            dilate(pe, 0)

    def test_render_halves(self):
        ctx = EvalContext(scale=2, order=10)
        s = monomial(ctx, 1, 0, 3) + monomial(ctx, -2, 1, 4)
        text = render(s)
        assert "q^3/2" in text
        assert "q^2" in text
        assert "-2*z" in text
        assert render(zero(ctx)) == "0"


# Random series stay z-free: arbitrary z-monomials leave the guard region,
# while every z-carrying shape the engine builds grows quadratically in q.
small_series = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.just(0),
        st.integers(min_value=-4, max_value=4),
    ),
    max_size=6,
)


def build(terms):
    s = zero(CTX20)
    for qe, ze, c in terms:
        s = s + monomial(CTX20, c, ze, qe)
    return s


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_series, small_series, small_series)
    def test_ring_axioms(self, ta, tb, tc):
        a, b, c = build(ta), build(tb), build(tc)
        assert equal_up_to(a + b, b + a)
        assert equal_up_to(a * b, b * a)
        assert equal_up_to((a + b) * c, a * c + b * c)
        assert equal_up_to((a * b) * c, a * (b * c))

    @settings(max_examples=40, deadline=None)
    @given(small_series)
    def test_invert_roundtrip(self, ta):
        s = one(CTX20) + monomial(CTX20, 1, 0, 1) * build(ta)
        assert equal_up_to(s * s.invert(), one(CTX20))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=8))
    def test_qbinom_theorem(self, n):
        # (z;q)_n = sum_j qbinom(n,j) (-1)^j q^(binom(j,2)) z^j
        lhs = poch_finite(CTX20, (1, 1, 0), 1, n)
        rhs = zero(CTX20)
        for j in range(n + 1):
            rhs = rhs + qbinomial(CTX20, n, j) * monomial(
                CTX20, (-1) ** j, j, j * (j - 1) // 2
            )
        assert equal_up_to(lhs, rhs)


class TestTrustedProducts:
    def test_integral_product_of_fractions_holds_ints(self):
        a = monomial(CTX20, F(1, 2)) + monomial(CTX20, 1, 0, 1)
        b = monomial(CTX20, 2) - monomial(CTX20, 2, 0, 1)
        p = a * b
        assert todict(p) == {(0, 0): 1, (1, 0): 1, (2, 0): -2}
        assert coefficient_types(p) == {int}

    def test_product_leaving_the_z_region_raises(self):
        a = monomial(CTX20, 1, 4, 0) + monomial(CTX20, 1, 0, 1)
        b = monomial(CTX20, 1, 3, 0)
        with pytest.raises(ZDegreeError) as err:
            a * b
        assert str(err.value) == "z-exponent 7 at q-exponent 0 exceeds guard cap 6 (scale 1, order 20)"

    @settings(max_examples=40, deadline=None)
    @given(small_series, small_series,
           st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
    def test_products_never_hold_floats(self, ta, tb, c):
        a, b = build(ta) * c, build(tb) + monomial(CTX20, c)
        assert coefficient_types(a * b) <= {int, F}
        assert all(type(v) is int for _, _, v in (a * b).terms() if v == int(v))


class TestExactInputs:
    def test_floats_are_refused(self):
        # 0.1 would be stored as 3602879701896397/36028797018963968.
        with pytest.raises(TypeError):
            monomial(CTX20, 0.1)
        with pytest.raises(TypeError):
            QSeries(CTX20, {0: {0: 0.1}})
        with pytest.raises(TypeError):
            one(CTX20) * 0.5
        with pytest.raises(TypeError):
            times_binomials(one(CTX20), [(1, 0, 1, 1, 1)], (), (0.5, 0, 0))

    def test_exact_inputs_still_pass(self):
        assert todict(QSeries(CTX20, {0: {0: F(1, 10)}, 1: {0: 2}})) == {(0, 0): F(1, 10), (1, 0): 2}


class TestRetruncate:
    def test_a_higher_order_is_refused(self):
        # At order 5, (q;q)_inf reads 1 - q - q^2 + q^5; at order 20 it has
        # q^7, q^12, q^15, which the lower series never computed.
        low = poch_infinite(EvalContext(order=5), (1, 0, 1), 1)
        with pytest.raises(ContextMismatchError):
            retruncate(low, CTX20)

    def test_another_scale_or_z_binding_is_refused(self):
        s = poch_infinite(CTX20, (1, 0, 1), 1)
        with pytest.raises(ContextMismatchError):
            retruncate(s, EvalContext(scale=2, order=20))
        with pytest.raises(ContextMismatchError):
            retruncate(s, EvalContext(order=10, z_interp=Monomial(1, 0)))

    def test_a_lower_order_cuts(self):
        s = poch_infinite(CTX20, (1, 0, 1), 1)
        low = retruncate(s, EvalContext(order=5))
        assert todict(low) == {(0, 0): 1, (1, 0): -1, (2, 0): -1, (5, 0): 1}
        assert retruncate(s, CTX20) is s
        assert retruncate(s, EvalContext(order=0)) == one(EvalContext(order=0))


class TestZGuardPlaces:
    """The guard reads each z-column once, wherever a table is made."""

    def test_row_pass_past_the_cap(self):
        # z^6 is within the cap 6 at order 20; 1 - z takes it to z^7.
        with pytest.raises(ZDegreeError) as err:
            times_binomials(monomial(CTX20, 1, 6, 0), [(1, 1, 0, 1, 1)])
        assert str(err.value) == "z-exponent 7 at q-exponent 0 exceeds guard cap 6 (scale 1, order 20)"
        # 1/(1 - z*q) = sum_k z^k q^k reaches z^7 at q^7.
        with pytest.raises(ZDegreeError) as err:
            times_binomials(one(CTX20), (), [(1, 1, 1, 1, 1)])
        assert str(err.value) == "z-exponent 7 at q-exponent 7 exceeds guard cap 6 (scale 1, order 20)"

    def test_mul_raw(self):
        a = monomial(CTX20, 1, 4, 0) + monomial(CTX20, 1, 0, 1)
        b = monomial(CTX20, 1, 3, 2)
        with pytest.raises(ZDegreeError) as err:
            _mul_raw(a, b)
        assert str(err.value) == "z-exponent 7 at q-exponent 2 exceeds guard cap 6 (scale 1, order 20)"

    def test_public_constructor(self):
        with pytest.raises(ZDegreeError):
            QSeries(CTX20, {3: {7: 1}})
        with pytest.raises(ZDegreeError):
            QSeries(CTX20, {3: {-7: 1}, 4: {0: 1}})
        folded = EvalContext(order=20, z_interp=Monomial(1, 1))
        with pytest.raises(ZDegreeError, match="survived monomial folding"):
            QSeries(folded, {3: {1: 1}})
        # A zero coefficient or a term above the order is no term.
        assert QSeries(CTX20, {3: {9: 0}}).is_zero()
        assert QSeries(CTX20, {21: {9: 1}}).is_zero()


# Random tables against the term lists of ``oracles``: q-exponents below
# q^0 and above the order, z-exponents up to the guard under formal z.
_TL_ORDER = 10
_tl_coeffs = st.sampled_from([1, -1, 2, -3, F(1, 2), F(-2, 3)])
_tl_folds = st.one_of(st.none(), st.tuples(st.sampled_from([1, -1]), st.integers(0, 2)))


@st.composite
def _tables(draw, formal):
    zs = st.integers(-2, 2) if formal else st.just(0)
    entries = draw(st.lists(st.tuples(st.integers(-3, _TL_ORDER + 2), zs, _tl_coeffs), max_size=7))
    tl = {}
    for qe, ze, c in entries:
        tl = oracles.tl_add(tl, oracles.tl_mono(c, ze, qe))
    return tl


def _tl_ctx(fold):
    return EvalContext(order=_TL_ORDER, z_interp=None if fold is None else Monomial(*fold))


def _series(ctx, tl):
    data = {}
    for (qe, ze), c in tl.items():
        data.setdefault(qe, {})[ze] = c
    return QSeries(ctx, data)


def _cut(tl, order):
    return {k: c for k, c in tl.items() if k[0] <= order}


def _agrees(s, tl):
    """s holds exactly the terms of tl up to its order, integral ones as ints."""
    got = todict(s)
    assert got == _cut(tl, s.ctx.order)
    assert all(type(c) is int for c in got.values() if c.denominator == 1)
    assert s.is_zero() == (not got)
    assert s.min_exponent() == min((qe for qe, _ in got), default=None)


def _binomial_tl(c, a, e):
    return oracles.tl_add(oracles.tl_one(), oracles.tl_mono(-F(c), a, e))


def _over_cap(tl, ctx):
    return any(abs(ze) > ctx.z_cap for (qe, ze) in tl if qe <= ctx.order)


class TestColumnLayoutAgainstTermLists:
    """Every series operation on the column layout against ``oracles.tl_*``."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), _tl_folds, _tl_coeffs)
    def test_ring_operations(self, data, fold, c):
        ctx = _tl_ctx(fold)
        ta = _cut(data.draw(_tables(fold is None)), ctx.order)
        tb = _cut(data.draw(_tables(fold is None)), ctx.order)
        a, b = _series(ctx, ta), _series(ctx, tb)
        _agrees(a, ta)
        _agrees(a + b, oracles.tl_add(ta, tb))
        _agrees(a - b, oracles.tl_add(ta, oracles.tl_scale(tb, -1)))
        _agrees(-a, oracles.tl_scale(ta, -1))
        _agrees(a * c, oracles.tl_scale(ta, c))
        # A table left unreduced would read the same terms but compare unequal.
        assert (a * c) * (1 / F(c)) == a
        assert a * c == _series(ctx, oracles.tl_scale(ta, c))
        _agrees(c * a + b * 0, oracles.tl_scale(ta, c))
        prod = oracles.tl_mul(ta, tb, ctx.order)
        if _over_cap(prod, ctx):
            with pytest.raises(ZDegreeError):
                a * b
        else:
            _agrees(a * b, prod)
        # Total cancellation leaves the zero series.
        assert a + (-a) == zero(ctx)
        assert (a - a).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(st.data(), _tl_folds)
    def test_inspection_and_comparison(self, data, fold):
        ctx = _tl_ctx(fold)
        ta = _cut(data.draw(_tables(fold is None)), ctx.order)
        tb = _cut(data.draw(_tables(fold is None)), ctx.order)
        a, b = _series(ctx, ta), _series(ctx, tb)
        assert list(a.terms()) == [(qe, ze, c) for (qe, ze), c in sorted(ta.items())]
        for qe in range(-4, ctx.order + 2):
            for ze in range(-3, 4):
                assert a.coefficient(qe, ze) == ta.get((qe, ze), 0)
                assert type(a.coefficient(qe, ze)) in (int, F)
        bad = oracles.tl_cmp_upto(ta, tb, ctx.order)
        want = None if not bad else (*bad[0][0], bad[0][1], bad[0][2])
        assert first_mismatch(a, b) == want
        assert (a == b) == (want is None)
        for m in (1, 2, 3):
            _agrees(dilate(a, m), {(qe * m, ze): c for (qe, ze), c in ta.items()})
        for order in (ctx.order, 4, 0):
            low = EvalContext(order=order, z_interp=ctx.z_interp)
            if _over_cap(ta, low):
                with pytest.raises(ZDegreeError):
                    retruncate(a, low)
            else:
                _agrees(retruncate(a, low), ta)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), _tl_folds)
    def test_invert(self, data, fold):
        ctx = _tl_ctx(fold)
        ta = _cut(data.draw(_tables(fold is None)), ctx.order)
        assume(ta)
        m = min(qe for qe, _ in ta)
        assume(len([k for k in ta if k[0] == m]) == 1)
        a = _series(ctx, ta)
        # The reference reaches the order through a lead above q^0 when it
        # works m above it.
        want = oracles.tl_inv(ta, ctx.order + max(0, m))
        if _over_cap(want, ctx):
            with pytest.raises(ZDegreeError):
                a.invert()
        else:
            _agrees(a.invert(), want)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), _tl_folds, _tl_coeffs, st.integers(0, 2))
    def test_times_binomials(self, data, fold, lc, lq):
        ctx = _tl_ctx(fold)
        formal = fold is None
        ta = _cut(data.draw(_tables(formal)), ctx.order)
        zs = st.integers(-1, 1) if formal else st.just(0)
        num = data.draw(st.lists(st.tuples(_tl_coeffs, zs, st.integers(0, 5)), max_size=3))
        den = data.draw(st.lists(st.tuples(_tl_coeffs, zs, st.integers(1, 5)), max_size=3))
        a = _series(ctx, ta)
        m = min((qe for qe, _ in ta), default=0) + lq
        work = ctx.order - min(0, m)
        want = oracles.tl_mul(ta, oracles.tl_mono(lc, 0, lq), work)
        for f in num:
            want = oracles.tl_mul(want, _binomial_tl(*f), work)
        for f in den:
            want = oracles.tl_mul(want, oracles.tl_inv(_binomial_tl(*f), work), work)
        runs = ([f + (1, 1) for f in num], [f + (1, 1) for f in den], (lc, 0, lq))
        if _over_cap(want, ctx):
            with pytest.raises(ZDegreeError):
                times_binomials(a, *runs)
        else:
            _agrees(times_binomials(a, *runs), want)
