"""Closed-form special sums against frozen and oracle expectations, and the
DSL evaluator's generic Appell and Hecke route against those closed forms."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from baileyforge import EvalContext, Monomial, PoleError, TerminationError, equal_up_to, monomial
from baileyforge.dsl import evaluate_expr, parse_expr
from baileyforge.errors import SeriesError
from baileyforge.oracle import expand_expr
from baileyforge.special import (
    AppellLerchSpec,
    HeckeSpec,
    appell_lerch_sum,
    geometric_inverse,
    hecke_sum,
)

import oracles

CTX = EvalContext(scale=1, order=30)

# by hand: triple product at step 3 with w = z*q, |n| <= 3
JTP_TABLE = {
    (0, 0): F(1),
    (1, 1): F(-1),
    (2, -1): F(-1),
    (5, 2): F(1),
    (7, -2): F(1),
    (12, 3): F(-1),
    (15, -3): F(-1),
}

# oracle: hecke_full_rhs(8): double sum q^(n(n+1)) sum_{|j|<=n} (-1)^j z^j q^(-j)
HECKE_FULL_8 = {
    (0, 0): F(1), (1, 1): F(-1), (2, 0): F(1), (3, -1): F(-1),
    (4, 2): F(1), (5, 1): F(-1), (6, 0): F(1), (7, -1): F(-1), (8, -2): F(1),
}


def _dsl(text, ctx=CTX):
    return evaluate_expr(parse_expr(text, scale=ctx.scale), ctx.scale, ctx.order, ctx.z_interp)


# The triple product at step 3 with w = z*q, as a bilateral sum and as a product.
JTP_SUM = "sum(n in Z, (-1)^(n) * q^(3*binom(n, 2)) * z^(n) * q^(n))"
JTP_PRODUCT = "theta(z * q, q^(2) / z; q^(3)) * poch(q^(3); q^(3))"


class TestThetaProduct:
    """The Jacobi triple product through the DSL evaluator's sum and product lowering."""

    def test_jtp_sum_vs_product(self):
        s = _dsl(JTP_SUM)
        assert equal_up_to(s, _dsl(JTP_PRODUCT))
        for (qe, ze), c in JTP_TABLE.items():
            assert s.coefficient(qe, ze) == c

    def test_jtp_sum_monomial_context(self):
        ctx = EvalContext(order=30, z_interp=Monomial(1, 1))
        assert equal_up_to(_dsl(JTP_SUM, ctx), _dsl(JTP_PRODUCT, ctx))

    def test_jtp_negative_coeff(self):
        # w = -z: sum q^(binom(n,2)) z^n equals (-z, -q/z, q; q)_inf
        s = _dsl("sum(n in Z, q^(binom(n, 2)) * z^(n))")
        assert equal_up_to(s, _dsl("theta(-z, -q / z, q; q)"))

    def test_denominator(self):
        euler = _dsl("theta(q; q)")
        pgf = _dsl("1 / theta(q; q)")
        assert equal_up_to(euler * pgf, monomial(CTX, 1))

    def test_termination_guard(self):
        with pytest.raises(TerminationError):
            _dsl("sum(n in Z, (-1)^(n) * q^(binom(n, 2) - 1000*n))")


class TestGeometricInverse:
    def test_plus(self):
        g = geometric_inverse(CTX, 1, 2)
        ref = (monomial(CTX, 1) + monomial(CTX, 1, 0, 2)).invert()
        assert equal_up_to(g, ref)

    def test_minus(self):
        g = geometric_inverse(CTX, -1, 3)
        ref = (monomial(CTX, 1) - monomial(CTX, 1, 0, 3)).invert()
        assert equal_up_to(g, ref)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_inverse(CTX, 1, 0)


class TestAppellLerch:
    def test_half_term_and_rewrite(self):
        spec = AppellLerchSpec(alt=1, zpow=1, quad=F(1), lin=F(0), den_sign=1, den_coef=2)
        a = appell_lerch_sum(CTX, spec)
        assert a.coefficient(0, 0) == F(1, 2)
        # n=1: -z q/(1+q^2); n=-1 rewrites to -q^3 z^{-1}/(1+q^2)
        assert a.coefficient(1, 1) == -1
        assert a.coefficient(3, 1) == 1
        assert a.coefficient(3, -1) == -1
        assert a.coefficient(5, -1) == 1

    def test_oracle_direct(self):
        # independent: accumulate the same sum with flat dict arithmetic
        spec = AppellLerchSpec(alt=1, zpow=1, quad=F(1), lin=F(0), den_sign=1, den_coef=2)
        a = appell_lerch_sum(CTX, spec)
        order = 30
        ref = {}
        for n in range(-8, 9):
            num = oracles.tl_mono((-1) ** (n % 2), n, n * n)
            e = 2 * n
            if e > 0:
                den = oracles.tl_add(oracles.tl_one(), oracles.tl_mono(1, 0, e))
                term = oracles.tl_mul(num, oracles.tl_inv(den, order), order)
            elif e == 0:
                term = oracles.tl_scale(num, F(1, 2))
            else:
                den = oracles.tl_add(oracles.tl_one(), oracles.tl_mono(1, 0, -e))
                term = oracles.tl_mul(
                    oracles.tl_mul(num, oracles.tl_mono(1, 0, -e), order),
                    oracles.tl_inv(den, order),
                    order,
                )
            ref = oracles.tl_add(ref, term)
        got = {(qe, ze): c for qe, ze, c in a.terms()}
        ref = {k: c for k, c in ref.items() if k[0] <= order and c}
        assert got == ref

    def test_pole(self):
        spec = AppellLerchSpec(alt=0, zpow=0, quad=F(1), lin=F(0), den_sign=-1, den_coef=1)
        with pytest.raises(PoleError):
            appell_lerch_sum(CTX, spec)

    def test_validation(self):
        with pytest.raises(ValueError):
            AppellLerchSpec(alt=1, zpow=0, quad=F(0), lin=F(1), den_sign=1, den_coef=1)
        with pytest.raises(ValueError):
            AppellLerchSpec(alt=1, zpow=0, quad=F(1, 3), lin=F(0), den_sign=1, den_coef=1)
        # half-integer pair is fine: exponent n(3n-1)/2
        AppellLerchSpec(alt=1, zpow=1, quad=F(3, 2), lin=F(-1, 2), den_sign=1, den_coef=1)


class TestHecke:
    def test_full_region_frozen(self):
        h = hecke_sum(CTX, HeckeSpec(region="full", alt=1, zpow=1, outer=(1, 1, 0), inner=(0, -1)))
        got = {(qe, ze): c for qe, ze, c in h.terms() if qe <= 8}
        assert got == HECKE_FULL_8

    def test_full_matches_oracle(self):
        h = hecke_sum(CTX, HeckeSpec(region="full", alt=1, zpow=1, outer=(1, 1, 0), inner=(0, -1)))
        ref = oracles.hecke_full_rhs(30)
        got = {(qe, ze): c for qe, ze, c in h.terms()}
        ref = {k: c for k, c in ref.items() if k[0] <= 30}
        assert got == ref

    def test_half_region(self):
        # outer binom(n+1,2), inner -j^2-j: the half-region companion shape
        h = hecke_sum(
            CTX,
            HeckeSpec(region="half", alt=1, zpow=1, outer=(F(1, 2), F(1, 2), 0), inner=(-1, -1)),
        )
        # n=0: 1; n=1: q (j=0 only); n=2: q^3 (j in -1..1)
        assert h.coefficient(0, 0) == 1
        assert h.coefficient(1, 0) == 1
        assert h.coefficient(3, 0) == 1
        # n=2, j=1: exponent 3-2=1, z: -z q^1
        assert h.coefficient(1, 1) == -1
        # n=2, j=-1: exponent 3-0=3... inner(-1) = -1+1 = 0: -z^{-1} q^3
        assert h.coefficient(3, -1) == -1

    def test_monomial_fold(self):
        # z = -q makes the full shape collapse to sum (2n+1) q^(n(n+1))
        ctx = EvalContext(order=30, z_interp=Monomial(-1, 1))
        h = hecke_sum(ctx, HeckeSpec(region="full", alt=1, zpow=1, outer=(1, 1, 0), inner=(0, -1)))
        for n in range(5):
            assert h.coefficient(n * (n + 1)) == 2 * n + 1

    def test_denominator_rewrite(self):
        h = hecke_sum(
            CTX,
            HeckeSpec(region="full", alt=1, zpow=1, outer=(1, 1, 0), inner=(1, 0), den=(1, 4, 0)),
        )
        # n=0 row: j=0 gives 1/2
        assert h.coefficient(0, 0) == F(1, 2)
        # n=1, j=1: -z q^3/(1+q^4); j=-1: rewrite -z^{-1} q^3 * q^4/(1+q^4)
        assert h.coefficient(3, 1) == -1
        assert h.coefficient(7, -1) == -1

    def test_divergent_shape_is_refused(self):
        # q^(3*n - binom(j, 2)) over the half region: row minima go 15 (n = 12),
        # 0 (n = 22), -6 (n = 24), so no row is the last one inside the window.
        spec = HeckeSpec("half", 0, 0, (0, 3, 0), (F(-1, 2), F(1, 2)))
        with pytest.raises(SeriesError, match="does not grow"):
            hecke_sum(EvalContext(order=12), spec)

    def test_region_guard(self):
        # inner exponent -5j drags row minima down faster than outer grows
        with pytest.raises(Exception) as exc:
            hecke_sum(CTX, HeckeSpec(region="full", alt=0, zpow=0, outer=(F(1, 2), F(1, 2), 0), inner=(0, -5)))
        assert exc.type.__name__ in ("RegionError", "TerminationError")


# -- the generic route against the closed forms ------------------------------

# Formal z, or z folded to +-q^k.
_zfolds = st.one_of(st.none(), st.builds(Monomial, st.sampled_from([1, -1]), st.integers(-2, 3)))
_orders = st.sampled_from([8, 12, 20])


def _agree(closed, text, ctx):
    """Where the closed form returns a value, the generic route returns the same."""
    try:
        want = closed()
    except SeriesError:
        return
    assert _dsl(text, ctx) == want, text


class TestGenericRoute:
    """``appell``/``hecke`` nodes, summed term by term, against ``special``.

    Exponents are drawn as A*binom(n, 2) + B*n + C, which is integral at every
    index; the closed forms take the same exponent as quad*n^2 + lin*n + C with
    quad = A/2 and lin = B - A/2.
    """

    @settings(max_examples=150, deadline=None)
    @given(alt=st.integers(0, 1), zpow=st.integers(-2, 2), a=st.integers(1, 4),
           b=st.integers(-4, 4), c=st.integers(-3, 3), dc=st.integers(-3, 3),
           ds=st.integers(-3, 3), order=_orders, zi=_zfolds)
    def test_appell(self, alt, zpow, a, b, c, dc, ds, order, zi):
        ctx = EvalContext(order=order, z_interp=zi)
        spec = AppellLerchSpec(alt, zpow, F(a, 2), b - F(a, 2), 1, dc, ds, c)
        text = (f"appell(n, (-1)^({alt}*n) * z^({zpow}*n) * q^({a}*binom(n, 2) + {b}*n + {c}),"
                f" {dc}*n + {ds})")
        _agree(lambda: appell_lerch_sum(ctx, spec), text, ctx)

    @settings(max_examples=150, deadline=None)
    @given(region=st.sampled_from(["full", "half"]), alt=st.integers(0, 1),
           zpow=st.integers(-2, 2), a=st.integers(1, 3), b=st.integers(-3, 3),
           c=st.integers(-2, 2), d=st.integers(-3, 3),
           den=st.one_of(st.none(), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
           order=_orders, zi=_zfolds)
    def test_hecke(self, region, alt, zpow, a, b, c, d, den, order, zi):
        # A RegionError from hecke_sum counts as no value: the closed form
        # refuses a quadratic part that does not grow over the region and row
        # minima that fall, and the generic route sums them.
        ctx = EvalContext(order=order, z_interp=zi)
        spec = HeckeSpec(region, alt, zpow, (F(a, 2), b - F(a, 2), 0), (F(c, 2), d - F(c, 2)),
                         None if den is None else (1,) + den)
        exp = f"{a}*binom(n, 2) + {b}*n + {c}*binom(j, 2) + {d}*j"
        tail = "" if den is None else f", {den[0]}*j + {den[1]}"
        text = f"hecke(n, j, {region}, (-1)^({alt}*j) * z^({zpow}*j) * q^({exp}){tail})"
        _agree(lambda: hecke_sum(ctx, spec), text, ctx)

    def test_negative_divisor_exponent(self):
        # A term the q^(-den) shift carries past the order has a z-power past
        # the guard cap inside the window; the generic route never builds it.
        for text, order in (
            ("appell(n, z^(-n) * q^(binom(n, 2) + n - 1) * poch(-q; q, 1), n + 2)", 20),
            ("hecke(n, j, full, z^(-j) * q^(binom(n, 2) + binom(j + 1, 2) + 3*j)"
             " * poch(-q; q, 1), 2*j)", 8),
        ):
            expr = parse_expr(text)
            got = {(qe, ze): c for qe, ze, c in evaluate_expr(expr, order=order).terms()}
            want = {k: c for k, c in expand_expr(expr, 1, order, None, {}).items() if c}
            assert got == want, text
