"""Engine tests: pair construction, transforms, and the summation evaluators."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from baileyforge.dsl.evaluator import evaluate
from baileyforge.engine import (
    INFINITE,
    _Weights,
    _abel_alternating,
    _Budget,
    _bailey_sum,
    _signed,
    _times,
    _weighted,
    bms_general_eval,
    chain_step,
    closed_form_djk_pair,
    closed_form_jouhet_pair,
    definition_limit_eval,
    aw_lemma_eval,
    general_chain_step,
    iterated_lattice_eval,
    key_pair,
    lattice_djk,
    lattice_jouhet,
    multisum_lhs,
    verify_pair_definition,
    weak_lemma_eval,
)
from baileyforge.errors import (
    NegativeFloorError,
    NonUnitLeadingError,
    TerminationError,
    ZDegreeError,
)
from baileyforge.registry import REGISTRY, load_spec
import baileyforge.series
from baileyforge.series import (
    EvalContext,
    Monomial,
    _fold,
    _form_floor,
    _poch_floor,
    _stepped,
    binomials,
    monomial,
    one,
    poch_finite,
    retruncate,
    zero,
)
from baileyforge.special import hecke_sum, HeckeSpec

CTX = EvalContext(scale=1, order=30)
CTX40 = EvalContext(scale=1, order=40)
CTX2 = EvalContext(scale=2, order=40)


def as_dict(s, order=None):
    return {(qe, ze): c for qe, ze, c in s.terms() if order is None or qe <= order}


def oracle_dict(tl, order):
    return {k: c for k, c in tl.items() if k[0] <= order and c}


class TestKeyPair:
    def test_alpha_frozen(self):
        p = key_pair(CTX)
        # by hand: alpha_n = (-1)^n z^n q^(n(n-1)/2)
        assert as_dict(p.alpha(0)) == {(0, 0): F(1)}
        assert as_dict(p.alpha(1)) == {(0, 1): F(-1)}
        assert as_dict(p.alpha(-1)) == {(1, -1): F(-1)}
        assert as_dict(p.alpha(2)) == {(1, 2): F(1)}
        assert as_dict(p.alpha(-2)) == {(3, -2): F(1)}
        assert as_dict(p.alpha(3)) == {(3, 3): F(-1)}
        assert as_dict(p.alpha(-3)) == {(6, -3): F(-1)}

    def test_beta_matches_oracle(self):
        p = key_pair(CTX)
        for n in range(5):
            ref = oracle_dict(oracles.key_beta(n, 30), 30)
            assert as_dict(p.beta(n)) == ref, f"beta({n})"

    def test_beta_negative_zero(self):
        p = key_pair(CTX)
        assert p.beta(-1).is_zero()
        assert p.beta(-4).is_zero()

    def test_definition(self):
        assert verify_pair_definition(key_pair(CTX), 6)

    def test_definition_monomial_z(self):
        ctx = EvalContext(scale=1, order=30, z_interp=Monomial(-1, 1))
        assert verify_pair_definition(key_pair(ctx), 6)

    def test_definition_dilated(self):
        p = key_pair(CTX, 2)
        assert as_dict(p.alpha(2)) == {(2, 2): F(1)}
        assert verify_pair_definition(p, 4)

    def test_beta_limit_stabilizes(self):
        p = key_pair(CTX)
        lim = p.beta_limit()
        late = p.beta(9)
        assert as_dict(lim, 8) == as_dict(late, 8)


class TestWeakForms:
    def test_v1_matches_oracle(self):
        ctx = EvalContext(scale=1, order=6)
        lhs, rhs = weak_lemma_eval(key_pair(ctx), "V1")
        olhs, orhs = oracles.weak_v1_sides(6)
        assert as_dict(lhs) == oracle_dict(olhs, 6)
        assert as_dict(rhs) == oracle_dict(orhs, 6)

    @pytest.mark.parametrize("variant", ["V1", "V3", "V4", "V5"])
    def test_balances_base(self, variant):
        lhs, rhs = weak_lemma_eval(key_pair(CTX40), variant)
        assert lhs == rhs

    def test_balances_v2_even_dilation(self):
        lhs, rhs = weak_lemma_eval(key_pair(CTX2, 2), "V2")
        assert lhs == rhs

    def test_v2_rejects_odd_dilation(self):
        with pytest.raises(ValueError):
            weak_lemma_eval(key_pair(CTX), "V2")

    def test_v3_needs_limit(self):
        with pytest.raises(TerminationError):
            weak_lemma_eval(closed_form_djk_pair(CTX), "V3")

    def test_balances_monomial_z(self):
        ctx = EvalContext(scale=1, order=24, z_interp=Monomial(-1, 1))
        for variant in ("V1", "V4", "V5"):
            lhs, rhs = weak_lemma_eval(key_pair(ctx), variant)
            assert lhs == rhs, variant

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            weak_lemma_eval(key_pair(CTX), "V9")


class TestBmsCoherence:
    """V1, V2, V4 and V5 are two-limit settings by construction, so each is
    checked against its catalog spec, evaluated by the independent DSL path."""

    @staticmethod
    def _matches_catalog(variant, name, scale, dilation):
        spec = load_spec(REGISTRY[name])
        for order in (20, 50):
            lhs, rhs = weak_lemma_eval(key_pair(EvalContext(scale, order), dilation), variant)
            assert lhs == evaluate(spec, {}, "lhs", order=order), (variant, order)
            assert rhs == evaluate(spec, {}, "rhs", order=order), (variant, order)

    def test_v1_setting(self):
        self._matches_catalog("V1", "sq_mod3_formal", 1, 1)

    def test_v2_setting(self):
        self._matches_catalog("V2", "halfsq_mod2_formal", 2, 2)

    def test_v3_setting_doubles(self):
        pair = key_pair(CTX2, 2)
        wl, wr = weak_lemma_eval(pair, "V3")
        bl, br = bms_general_eval(pair, Monomial(1, 1), Monomial(-1, 1))
        assert wl == 2 * bl and wr == 2 * br

    def test_v4_setting(self):
        self._matches_catalog("V4", "tri_mod2_pair_formal", 1, 1)

    def test_v5_setting(self):
        self._matches_catalog("V5", "tri_appell_formal", 1, 1)

    def test_two_finite_balances(self):
        # a clean non-degenerate two-parameter setting at dilation 4
        pair = key_pair(CTX, 4)
        lhs, rhs = bms_general_eval(pair, Monomial(-1, 1), Monomial(1, 1))
        assert lhs == rhs


class TestTransforms:
    def test_chain_preserves_definition(self):
        assert verify_pair_definition(chain_step(key_pair(CTX)), 5)

    def test_chain_twice(self):
        assert verify_pair_definition(chain_step(chain_step(key_pair(CTX))), 4)

    @pytest.mark.parametrize(
        "x,y",
        [
            (INFINITE, INFINITE),
            (INFINITE, Monomial(-1, 1)),
            (Monomial(-1, 0), INFINITE),
            (Monomial(-1, 1), Monomial(1, 1)),
            (Monomial(-1, 2), Monomial(1, 1)),
            # kappa = 1, with beta weights below q^0 at small n
            (Monomial(1, -3), Monomial(1, 6)),
        ],
    )
    def test_general_chain_preserves_definition(self, x, y):
        assert verify_pair_definition(general_chain_step(key_pair(CTX, 4), x, y), 4)

    @pytest.mark.parametrize(
        "x,y",
        [
            (INFINITE, Monomial(-1, 1)),
            (Monomial(-1, 1), Monomial(1, 1)),
            (Monomial(1, -3), Monomial(1, 6)),
            (Monomial(1, 7), Monomial(-1, -3)),
        ],
    )
    def test_general_chain_is_exact_at_the_order(self, x, y):
        got = general_chain_step(key_pair(CTX, 4), x, y)
        ref = general_chain_step(key_pair(EvalContext(1, 60), 4), x, y)
        for n in range(6):
            assert got.beta(n) == retruncate(ref.beta(n), CTX), n
        for n in range(-5, 6):
            assert got.alpha(n) == retruncate(ref.alpha(n), CTX), n

    @pytest.mark.parametrize(
        "x,y", [(Monomial(1, 3), Monomial(1, 2)), (Monomial(1, 5), Monomial(-1, 1))]
    )
    def test_general_chain_refuses_a_negative_kernel_exponent(self, x, y):
        # kappa = 4 - x - y < 0: the beta weights fall like q^(kappa*n), so
        # beta'_n at order 30 needs the base pair's beta_j past q^30. Built at
        # order 30, beta'_2 differed from the pair built at order 60 and the
        # definition check failed.
        with pytest.raises(NegativeFloorError, match="kernel exponent"):
            general_chain_step(key_pair(CTX, 4), x, y)

    def test_general_chain_reduces_to_chain(self):
        base = key_pair(CTX)
        a = chain_step(base)
        b = general_chain_step(base, INFINITE, INFINITE)
        for n in range(-4, 5):
            assert a.alpha(n) == b.alpha(n)
        for n in range(5):
            assert a.beta(n) == b.beta(n)

    def test_djk_preserves_definition(self):
        assert verify_pair_definition(lattice_djk(key_pair(CTX, 2)), 5)
        assert verify_pair_definition(lattice_djk(key_pair(CTX, 4)), 4)

    def test_jouhet_preserves_definition(self):
        assert verify_pair_definition(lattice_jouhet(key_pair(CTX, 2)), 5)
        assert verify_pair_definition(lattice_jouhet(key_pair(CTX, 4)), 4)

    def test_iterated_walks_preserve_definition(self):
        assert verify_pair_definition(lattice_djk(lattice_djk(key_pair(CTX, 4))), 3)
        assert verify_pair_definition(lattice_jouhet(lattice_jouhet(key_pair(CTX, 4))), 3)

    def test_odd_dilation_rejected(self):
        with pytest.raises(ValueError):
            lattice_djk(key_pair(CTX))
        with pytest.raises(ValueError):
            lattice_jouhet(key_pair(CTX))

    def test_closed_djk_matches_walk(self):
        walk = lattice_djk(key_pair(CTX, 2))
        closed = closed_form_djk_pair(CTX)
        for n in range(-4, 5):
            assert walk.alpha(n) == closed.alpha(n), f"alpha({n})"
        for n in range(5):
            assert walk.beta(n) == closed.beta(n), f"beta({n})"
        assert verify_pair_definition(closed, 4)

    def test_closed_jouhet_matches_walk(self):
        walk = lattice_jouhet(key_pair(CTX, 2))
        closed = closed_form_jouhet_pair(CTX)
        for n in range(-4, 5):
            assert walk.alpha(n) == closed.alpha(n), f"alpha({n})"
        for n in range(5):
            assert walk.beta(n) == closed.beta(n), f"beta({n})"
        assert verify_pair_definition(closed, 4)

    def test_chain_limit_stabilizes(self):
        p = chain_step(key_pair(CTX))
        assert as_dict(p.beta_limit(), 9) == as_dict(p.beta(11), 9)

    def test_djk_limit_stabilizes(self):
        p = lattice_djk(key_pair(CTX, 2))
        assert as_dict(p.beta_limit(), 9) == as_dict(p.beta(11), 9)

    def test_jouhet_limit_stabilizes(self):
        p = lattice_jouhet(key_pair(CTX, 2))
        assert as_dict(p.beta_limit(), 9) == as_dict(p.beta(11), 9)


class TestDefinitionLimit:
    def test_key_pair_triple_product(self):
        lhs, rhs = definition_limit_eval(key_pair(CTX40))
        assert lhs == rhs

    def test_key_pair_monomial_z(self):
        ctx = EvalContext(scale=1, order=30, z_interp=Monomial(-1, 0))
        lhs, rhs = definition_limit_eval(key_pair(ctx))
        assert lhs == rhs

    def test_djk_output(self):
        lhs, rhs = definition_limit_eval(lattice_djk(key_pair(CTX, 2)))
        assert lhs == rhs

    def test_needs_limit(self):
        with pytest.raises(TerminationError):
            definition_limit_eval(closed_form_djk_pair(CTX))


class TestDoubleSum:
    def test_balances_key(self):
        for which in ("I", "II"):
            lhs, rhs = aw_lemma_eval(key_pair(CTX40, 2), which)
            assert lhs == rhs, which

    def test_balances_chain(self):
        for which in ("I", "II"):
            lhs, rhs = aw_lemma_eval(chain_step(key_pair(CTX, 2)), which)
            assert lhs == rhs, which

    def test_rhs_matches_hecke_module(self):
        _, rhs = aw_lemma_eval(key_pair(CTX, 2), "I")
        spec = HeckeSpec(region="full", alt=1, zpow=1, outer=(1, 1, 0), inner=(0, -1))
        assert rhs == hecke_sum(CTX, spec)

    def test_lhs_matches_literal(self):
        lhs, _ = aw_lemma_eval(key_pair(CTX, 2), "I")
        acc = zero(CTX)
        for n in range(6):
            t = poch_finite(CTX, (1, 1, 0), 2, n)
            t = t * poch_finite(CTX, (1, -1, 2), 2, n)
            t = t * monomial(CTX, 1, 0, n)
            t = t * poch_finite(CTX, (-1, 0, 1), 1, 2 * n + 1).invert()
            acc = acc + t
        assert as_dict(lhs, 5) == as_dict(acc, 5)

    def test_odd_dilation_rejected(self):
        with pytest.raises(ValueError):
            aw_lemma_eval(key_pair(CTX), "I")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            aw_lemma_eval(key_pair(CTX, 2), "III")


class TestMultisum:
    def test_ag1_k1_is_square_weight_sum(self):
        got = multisum_lhs("AG1", 1, CTX)
        lhs, _ = weak_lemma_eval(key_pair(CTX), "V1")
        assert got == lhs

    def test_ag1_regroups_chain(self):
        got = multisum_lhs("AG1", 2, CTX)
        lhs, _ = weak_lemma_eval(chain_step(key_pair(CTX)), "V1")
        assert got == lhs
        got3 = multisum_lhs("AG1", 3, CTX)
        lhs3, _ = weak_lemma_eval(chain_step(chain_step(key_pair(CTX))), "V1")
        assert got3 == lhs3

    def test_ag1_k2_literal(self):
        ctx = EvalContext(scale=1, order=20)
        pair = key_pair(ctx)
        acc = zero(ctx)
        for n1 in range(5):
            for n2 in range(n1 + 1):
                t = monomial(ctx, 1, 0, n1 * n1 + n2 * n2) * pair.beta(n2)
                t = t * poch_finite(ctx, (1, 0, 1), 1, n1 - n2).invert()
                acc = acc + t
        assert multisum_lhs("AG1", 2, ctx) == acc

    def test_ag2_k1_is_two_limit_lhs(self):
        got = multisum_lhs("AG2", 1, CTX)
        lhs, _ = bms_general_eval(key_pair(CTX, 2), INFINITE, Monomial(-1, 1))
        assert got == lhs

    def test_ag2_k2_literal(self):
        ctx = EvalContext(scale=1, order=20)
        pair = key_pair(ctx, 2)
        acc = zero(ctx)
        for n1 in range(5):
            for n2 in range(n1 + 1):
                t = monomial(ctx, 1, 0, n1 * n1 + n2 * n2) * pair.beta(n2)
                t = t * poch_finite(ctx, (-1, 0, 1), 2, n2)
                t = t * poch_finite(ctx, (1, 0, 2), 2, n1 - n2).invert()
                acc = acc + t
        assert multisum_lhs("AG2", 2, ctx) == acc

    def test_lat1_matches_iterated_walk(self):
        for k in (2, 3):
            got = multisum_lhs("LAT1", k, CTX)
            lhs, _ = iterated_lattice_eval(CTX, "djk", k, INFINITE, INFINITE)
            assert got == lhs, f"k={k}"

    def test_lat2_matches_iterated_walk(self):
        for k in (2, 3):
            got = multisum_lhs("LAT2", k, CTX)
            lhs, _ = iterated_lattice_eval(CTX, "jouhet", k, INFINITE, INFINITE)
            assert got == lhs, f"k={k}"

    def test_alternating_outer_rejected(self):
        with pytest.raises(TerminationError):
            multisum_lhs("LAT1", 2, CTX2, x=Monomial(1, 1), y=Monomial(-1, 1))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            multisum_lhs("XYZ", 2, CTX)

    @pytest.mark.parametrize("kind,k,limits", [
        *[(kind, k, "infinite") for kind in ("AG1", "AG2") for k in (1, 2, 3)],
        *[(kind, k, limits) for kind in ("LAT1", "LAT2") for k in (2, 3)
          for limits in ("infinite", "finite")],
    ])
    def test_matches_the_literal_sum(self, kind, k, limits):
        # The finite setting is x = y = -1, whose weights (-1; q)_n^2 q^n grow linearly.
        ctx = EvalContext(1, 16)
        if limits == "finite":
            got = multisum_lhs(kind, k, ctx, x=Monomial(-1, 0), y=Monomial(-1, 0))
            want = oracles.literal_multisum(kind, k, 16, (-1, 0), (-1, 0))
        else:
            got = multisum_lhs(kind, k, ctx)
            want = oracles.literal_multisum(kind, k, 16)
        assert as_dict(got) == oracle_dict(want, 16)

    @pytest.mark.parametrize("kind", ["AG1", "AG2"])
    def test_ag_kinds_take_no_limits(self, kind):
        with pytest.raises(ValueError, match="no limits"):
            multisum_lhs(kind, 2, CTX, x=Monomial(-1, 0), y=Monomial(1, 3))

    @pytest.mark.parametrize("kind,k,r", [("AG2", 1, 3), ("AG2", 2, 1), ("LAT1", 2, 1),
                                          ("LAT2", 2, 3), ("LAT1", 3, 2)])
    def test_odd_dilation_pairs_rejected(self, kind, k, r):
        # A half-step exponent needs an even dilation at every step.
        with pytest.raises(ValueError, match="even dilation"):
            multisum_lhs(kind, k, CTX, key_pair(CTX, r))


class TestIteratedIdentities:
    def test_first_walk_settings_balance(self):
        lhs, rhs = iterated_lattice_eval(CTX, "djk", 2, INFINITE, INFINITE)
        assert lhs == rhs
        lhs, rhs = iterated_lattice_eval(CTX, "djk", 2, INFINITE, Monomial(-1, 1))
        assert lhs == rhs
        lhs, rhs = iterated_lattice_eval(CTX, "djk", 2, INFINITE, Monomial(-1, 0))
        assert lhs == rhs

    def test_first_walk_abel_setting(self):
        lhs, rhs = iterated_lattice_eval(CTX2, "djk", 2, Monomial(1, 1), Monomial(-1, 1))
        assert lhs == rhs

    def test_second_walk_settings_balance(self):
        lhs, rhs = iterated_lattice_eval(CTX, "jouhet", 2, INFINITE, INFINITE)
        assert lhs == rhs
        lhs, rhs = iterated_lattice_eval(CTX, "jouhet", 2, INFINITE, Monomial(-1, 1))
        assert lhs == rhs

    def test_second_walk_abel_setting(self):
        lhs, rhs = iterated_lattice_eval(CTX2, "jouhet", 2, Monomial(1, 1), Monomial(-1, 1))
        assert lhs == rhs

    def test_half_square_settings(self):
        lhs, rhs = iterated_lattice_eval(CTX2, "djk", 2, INFINITE, Monomial(-1, 1))
        assert lhs == rhs
        lhs, rhs = iterated_lattice_eval(CTX2, "jouhet", 2, INFINITE, Monomial(-1, 1))
        assert lhs == rhs

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            iterated_lattice_eval(CTX, "djk", 1, INFINITE, INFINITE)


# -- the in-place helpers ----------------------------------------------------


def _signed_poch(ctx, base, step, n):
    """(base; q^step)_n as a series: 1 / (base q^(n step); q^step)_(-n) for n < 0."""
    if n >= 0:
        return poch_finite(ctx, base, step, n)
    c, ze, qe = base
    return poch_finite(ctx, (c, ze, qe + n * step), step, -n).invert()


def _table(s):
    return [(qe, ze, F(c)) for qe, ze, c in s.terms()]


_CTXS = [EvalContext(1, 12), EvalContext(1, 12, Monomial(-1, 1)), EvalContext(2, 12)]
_term_rows = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=12),
        st.integers(min_value=-1, max_value=1),
        st.sampled_from([1, -1, 2, F(1, 2), F(-3, 2)]),
    ),
    max_size=4,
)


# Contexts for the floor of a product form: formal, and z folded above and
# below q^0.
_FLOOR_CTXS = [EvalContext(1, 0), EvalContext(2, 0),
               EvalContext(1, 0, Monomial(-1, 1)), EvalContext(1, 0, Monomial(1, -2))]
_floor_lead = st.tuples(st.sampled_from([1, -1, 2, -2]), st.integers(-1, 1), st.integers(-12, 12))
# A base with coefficient 0 is the factor 1.
_floor_bases = st.tuples(st.sampled_from([1, -1, 2, -2, 0]), st.integers(-1, 1), st.integers(-12, 12))
# A product (bases; q^step)_n: n < 0 goes through _signed, one base at a time.
_floor_products = st.tuples(st.lists(_floor_bases, min_size=1, max_size=2),
                            st.integers(1, 4), st.integers(-5, 5))


class TestHelpers:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(range(len(_FLOOR_CTXS))), st.lists(_floor_products, max_size=2),
           st.lists(_floor_products, max_size=2), _floor_lead)
    def test_form_floor_is_the_lowest_exponent(self, ci, nums, dens, lead):
        ctx = _FLOOR_CTXS[ci]
        num: list = []
        den: list = []
        for side, other, products in ((num, den, nums), (den, num, dens)):
            for bases, step, n in products:
                if n >= 0:
                    side.append((tuple(bases), step, n))
                else:
                    for base in bases:
                        _signed(side, other, base, step, n)
        floor = _form_floor(ctx, num, den, lead)
        # The product runs at the order of the floor, or of q^0 below it: a
        # floor too high or too low shows as another lowest exponent or as
        # no term at all. A higher order would only add terms, and a formal
        # z soon passes the z-degree guard there.
        lifted = EvalContext(ctx.scale, max(floor, 0), ctx.z_interp)
        # A numerator with a factor 1 - q^0 vanishes, as binomials reads it.
        assume(all(binomials(lifted, *args)[0][0] for args in num))
        try:
            product = _times(one(lifted), num, den, _fold(lifted, *lead))
        except NonUnitLeadingError:
            assume(False)       # a divisor with no positive q-exponent is not a unit
        except ZDegreeError:
            assume(False)       # outside the z-degree guard region at this order
        assert product.min_exponent() == floor

    @given(st.integers(-30, 30), st.integers(1, 6), st.one_of(st.none(), st.integers(-3, 15)))
    def test_poch_floor_sums_the_factors_below_q0(self, e, step, length):
        stop = length if length is not None else max(0, -e) + 1
        assert _poch_floor(e, step, length) == sum(min(0, e + t * step) for t in range(stop))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(range(len(_CTXS))),
        st.lists(_term_rows, min_size=1, max_size=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from([1, -1, 2]),
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=3),
            ),
        ),
    )
    def test_bailey_sum_matches_the_direct_sum(self, ci, rows, step, shift, kernel):
        ctx = _CTXS[ci]
        if kernel is not None and not ctx.is_formal:
            kernel = (kernel[0], 0, kernel[2])
        # Terms below q^0 leave the top of a truncated product unknown, so the
        # reference sums at a lifted order and truncates back. The lowest
        # folded exponent is -4: q^-3 z^-1 at z = -q.
        lifted = EvalContext(ctx.scale, ctx.order + 4, ctx.z_interp)

        def terms(c):
            out = []
            for row in rows:
                t = zero(c)
                for qe, ze, coeff in row:
                    if qe <= ctx.order:
                        t = t + monomial(c, coeff, ze, qe)
                out.append(t)
            return out

        ref = zero(lifted)
        for k, t in enumerate(terms(lifted)):
            t = t * monomial(lifted, 1, 0, shift * k)
            if kernel is not None:
                t = t * poch_finite(lifted, kernel, step, k)
            ref = ref + t * poch_finite(lifted, (1, 0, step), step, k).invert()
        got = _bailey_sum(terms(ctx), step, shift, kernel)
        assert _table(got) == _table(retruncate(ref, ctx))

    @pytest.mark.parametrize(
        "x,y",
        [
            (INFINITE, INFINITE),
            (INFINITE, Monomial(-1, 1)),
            (Monomial(-1, 0), Monomial(1, 1)),
            (Monomial(1, 2), Monomial(-1, 5)),
            (Monomial(1, -3), Monomial(1, 6)),
        ],
    )
    @pytest.mark.parametrize("alpha", [False, True])
    def test_weights_apply_matches_the_product(self, x, y, alpha):
        # The reference inverts each factor on its own, and inverting one of
        # valuation v > 0 loses its top v coefficients, so it works at a
        # lifted order and truncates back.
        ctx, r = EvalContext(1, 20), 4
        lifted = EvalContext(1, 120)
        w = _Weights(r, x, y)
        for n in range(-4, 5):
            ref = one(lifted)
            qshift, sign = r * n, 1
            for p in (x, y):
                if p is INFINITE:
                    qshift += r * n * (n - 1) // 2
                    sign *= (-1) ** (n % 2)
                    continue
                ref = ref * _signed_poch(lifted, (p.sign, 0, p.qexp), r, n)
                if alpha:
                    ref = ref * _signed_poch(lifted, (p.sign, 0, r - p.qexp), r, n).invert()
                qshift -= p.qexp * n
                sign *= p.sign ** (n % 2)
            s = one(ctx) + monomial(ctx, 2, 0, 1) - monomial(ctx, F(1, 3), 0, 3)
            s_lifted = one(lifted) + monomial(lifted, 2, 0, 1) - monomial(lifted, F(1, 3), 0, 3)
            ref = ref * monomial(lifted, sign, 0, qshift) * s_lifted
            assert _table(_times(s, *w.form(n, alpha))) == _table(retruncate(ref, ctx)), n

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind,name", [("AG1", "ag_multisum_k"), ("AG2", "ag_even_multisum_k")])
    def test_multisum_matches_the_dsl(self, kind, name, k):
        ctx = EvalContext(1, 20)
        spec = load_spec(REGISTRY[f"{name}{k}"])
        assert _table(multisum_lhs(kind, k, ctx)) == _table(evaluate(spec, {}, "lhs", order=20))


# -- terms reached from their predecessors -----------------------------------

_STEP_CTXS = [
    EvalContext(1, 24),
    EvalContext(2, 24),
    EvalContext(1, 40, Monomial(-1, 1)),
    EvalContext(2, 40, Monomial(-1, 1)),
    # z = q^-2 folds the first factors of (z; Q)_n below q^0, so the first
    # steps have a negative lead and are built from scratch, and a factor
    # 1 - q^0 makes beta_n vanish from then on.
    EvalContext(1, 40, Monomial(1, -2)),
    EvalContext(2, 40, Monomial(1, -2)),
]
_STEP_IDS = ["formal-1", "formal-2", "folded-1", "folded-2", "below-1", "below-2"]


def _lifted(ctx):
    return EvalContext(ctx.scale, ctx.order + 10, ctx.z_interp)


def _ref_beta(ctx, r, n):
    """(z, Q/z; Q)_n / (Q; Q)_2n built as products and an inverse, Q = q^r.

    The numerator may start below q^0 (z = q^-2 gives q^-2 at n = 1), so
    the product is taken at a higher order and truncated back.
    """
    lifted = _lifted(ctx)
    num = poch_finite(lifted, ((1, 1, 0), (1, -1, r)), r, n)
    return retruncate(num * poch_finite(lifted, (1, 0, r), r, 2 * n).invert(), ctx)


def _joined(f, g):
    """The product form f(n) g(n), as ``_weighted`` joins beta_n and a weight."""

    def form(n):
        (fn, fd, (fc, fz, fq)), (gn, gd, (gc, gz, gq)) = f(n), g(n)
        return [*fn, *gn], [*fd, *gd], (fc * gc, fz + gz, fq + gq)

    return form


def _any_order_forms(ctx):
    """Product forms the engine steps: beta_n, weights, and beta_n times a weight."""
    r = ctx.scale
    beta = key_pair(ctx).beta_form
    weights = _Weights(r, Monomial(1, 1), Monomial(-1, 0))
    below = _Weights(r, Monomial(-1, -r), INFINITE)
    alpha = _Weights(r, Monomial(-1, 0), Monomial(-1, -1))
    return {
        "beta": beta,
        # A divisor 1 + Q^(2n+1) whose base moves with n is taken out whole.
        "beta-moving": _joined(beta, lambda n: ((), [((-1, 0, r * (2 * n + 1)), r, 1)], (1, 0, 0))),
        "weights": weights.form,
        "beta-weights": _joined(beta, weights.form),
        "beta-weights-below": _joined(beta, below.form),
        "beta-squares": _joined(beta, _Weights(r, INFINITE, INFINITE).form),
        "alpha-weights": lambda n: alpha.form(n, True),
    }


def _weight_forms(r):
    """The product forms the engine puts on beta_n, at dilation r."""
    h = r // 2 or 1
    odd = ((1, 0, r), 2 * r)
    forms = {
        "V1": lambda n: ((), (), (1, 0, r * n * n)),
        "V2": lambda n: ([((-1, 0, h), r, n)], (), (1, 0, h * n * n)),
        "V3": lambda n: ([odd + (n,)], (), (1, 0, 0)),
        "V4": lambda n: ([((-1, 0, r), r, n)], (), (1, 0, r * n * (n - 1) // 2)),
        "V5": lambda n: ([((-1, 0, 0), r, n)], (), (1, 0, r * n * (n + 1) // 2)),
        "abel": lambda n: ([(((1, 0, 1), (-1, 0, 1)), r, n)], (), (1, 0, 0)),
        "djk": lambda n: ([((-1, 0, 0), h, 2 * n)], (), (1, 0, h * n)),
        "jouhet": lambda n: ([((-1, 0, h), h, 2 * n)], (), (1, 0, 0)),
        "aw-I": lambda n: ([((1, 0, 2 * h), 2 * h, 2 * n)], [((-1, 0, h), h, 2 * n + 1)],
                           (1, 0, h * n)),
    }
    for x, y in [(INFINITE, INFINITE), (Monomial(1, 1), INFINITE),
                 (Monomial(-1, 0), Monomial(1, 1)), (Monomial(1, -1), Monomial(-1, 2))]:
        forms[f"weights-{x}-{y}"] = _Weights(r, x, y).form
    return forms


class TestSteppedTerms:
    """Each term beta_n W(n) is reached from its predecessor, exactly."""

    @pytest.mark.parametrize("ctx", _STEP_CTXS, ids=_STEP_IDS)
    def test_key_beta_matches_the_product(self, ctx):
        pair = key_pair(ctx)
        for n in range(41):
            assert _table(pair.beta(n)) == _table(_ref_beta(ctx, ctx.scale, n)), n

    @pytest.mark.parametrize("ctx", _STEP_CTXS, ids=_STEP_IDS)
    def test_weighted_terms_match_the_product(self, ctx):
        r = ctx.scale
        pair = key_pair(ctx)
        for name, form in _weight_forms(r).items():
            term = _weighted(pair, form)
            for n in range(41):
                # A weight may start below q^0 too (x = q^-1).
                want = retruncate(_times(_ref_beta(_lifted(ctx), r, n), *form(n)), ctx)
                assert _table(term(n)) == _table(want), (name, n)

    @pytest.mark.parametrize("ctx", [EvalContext(1, 30), EvalContext(2, 40),
                                     EvalContext(2, 40, Monomial(-1, 1))],
                             ids=["formal-1", "formal-2", "folded-2"])
    def test_abel_sum_matches_its_definition(self, ctx):
        # c_inf/2 + sum (-1)^n (c_n - c_inf), summed here term by term in
        # rationals, against the stepped terms summed twice and halved.
        r = ctx.scale
        pair = key_pair(ctx)
        odd = ((1, 0, r), 2 * r)
        lim = _times(pair.beta_limit(), [odd + (None,)])
        want = lim * F(1, 2)
        for n in range(41):
            want = want + (_times(_ref_beta(ctx, r, n), [odd + (n,)]) - lim) * (-1) ** n
        term = _weighted(pair, lambda n: ([odd + (n,)], (), (1, 0, 0)))
        assert _table(_abel_alternating(ctx, term, lim, _Budget())) == _table(want)

    @pytest.mark.parametrize("ctx", [EvalContext(2, 24), EvalContext(2, 40, Monomial(-1, 1))],
                             ids=["formal", "folded"])
    def test_transforms_match_the_unstepped_pair(self, ctx):
        stepped = key_pair(ctx)
        plain = dataclasses.replace(stepped, beta_form=None)
        x, y = Monomial(1, 1), Monomial(-1, 1)
        for make in (chain_step, lattice_djk, lattice_jouhet,
                     lambda p: general_chain_step(p, Monomial(-1, 0), Monomial(1, 1))):
            a, b = make(stepped), make(plain)
            for n in range(8):
                assert _table(a.beta(n)) == _table(b.beta(n)), (make, n)
            assert _table(a.beta_limit()) == _table(b.beta_limit()), make
        for v in ("V1", "V2", "V3", "V4", "V5"):
            assert list(map(_table, weak_lemma_eval(stepped, v))) == list(
                map(_table, weak_lemma_eval(plain, v))), v
        assert list(map(_table, bms_general_eval(stepped, x, y))) == list(
            map(_table, bms_general_eval(plain, x, y)))
        for which in ("I", "II"):
            assert list(map(_table, aw_lemma_eval(stepped, which))) == list(
                map(_table, aw_lemma_eval(plain, which))), which
        assert _table(multisum_lhs("AG2", 2, ctx, stepped)) == _table(
            multisum_lhs("AG2", 2, ctx, plain))

    @pytest.mark.parametrize("ctx", [EvalContext(1, 24), EvalContext(2, 30, Monomial(-1, 2))],
                             ids=["formal", "folded"])
    @pytest.mark.parametrize("name", sorted(_any_order_forms(EvalContext(1, 24))))
    @settings(max_examples=25, deadline=None)
    @given(moves=st.lists(st.one_of(st.integers(-3, 4), st.integers(-30, 30)),
                          min_size=1, max_size=12))
    def test_terms_in_any_order(self, ctx, name, moves):
        # Jumps, repeats and steps back reach a term from whichever term is
        # held: by the factors it gains or loses, by taking a read out whole,
        # or from 1.
        form = _any_order_forms(ctx)[name]
        term = _stepped(ctx, form)
        n = 0
        for d in moves:
            n = max(0, min(30, n + d))
            assert _table(term(n)) == _table(_times(one(ctx), *form(n))), n

    def test_beta_applies_a_linear_number_of_factors(self, monkeypatch):
        # Each step applies 4 factors; built from scratch, beta_n applies 4n.
        # The cost model builds beta_1 and beta_2 from 1 (4 + 8 factors, where
        # stepping would take 4 + 4), and beta_3 on step from beta_2.
        factors = baileyforge.series._factors
        seen = []

        def counted(runs, n, divide):
            out = factors(runs, n, divide)
            seen.append(len(out[0]))
            return out

        monkeypatch.setattr(baileyforge.series, "_factors", counted)

        def applied(count):
            seen.clear()
            pair = key_pair(EvalContext(1, 200))
            for n in range(count + 1):
                pair.beta(n)
            return sum(seen)

        assert applied(20) == 4 * 20 + 4
        assert applied(40) == 4 * 40 + 4

    def test_each_product_is_read_once_per_term(self, monkeypatch):
        # The head's lead and the term's runs share one read of each
        # product; the other reads are of the factors a step changes. When
        # the head read each product a second time, there were 329.
        binomials = baileyforge.series.binomials
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return binomials(*args, **kwargs)

        monkeypatch.setattr(baileyforge.series, "binomials", counted)
        weak_lemma_eval(key_pair(EvalContext(1, 50)), "V3")    # alt_theta_formal
        assert len(calls) == 317

    def test_far_beta_needs_no_recursion(self):
        # beta_0 first; it is too small to be kept, so beta_300 is built
        # from 1, by one kernel call and not by recursion.
        ctx = EvalContext(1, 400, Monomial(-1, 1))
        pair = key_pair(ctx)
        pair.beta(0)
        got = pair.beta(300)
        zbases = ((1, 1, 0), (1, -1, 1))
        want = _times(one(ctx), [(zbases, 1, 300)], [((1, 0, 1), 1, 600)])
        assert _table(got) == _table(want)
